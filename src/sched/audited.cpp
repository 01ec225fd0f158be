#include "sched/audited.hpp"

#include <string>

#include "common/assert.hpp"
#include "fault/auditor.hpp"

namespace basrpt::sched {
namespace {

std::string render(const std::vector<FlowId>& selected) {
  std::string text = "[";
  for (std::size_t k = 0; k < selected.size(); ++k) {
    text += (k == 0 ? "" : " ") + std::to_string(selected[k]);
  }
  return text + "]";
}

}  // namespace

AuditedScheduler::AuditedScheduler(SchedulerPtr inner, SchedulerPtr reference)
    : inner_(std::move(inner)), reference_(std::move(reference)) {
  BASRPT_REQUIRE(inner_ != nullptr && reference_ != nullptr,
                 "decision audit needs both schedulers");
  audited_ = inner_->checkpoint_state().empty();
}

void AuditedScheduler::decide_into(PortId n_ports,
                                   const CandidateView& candidates,
                                   Decision& out) {
  inner_->decide_into(n_ports, candidates, out);
  ++decisions_;
  if (!audited_ || decisions_ % kAuditEvery != 0) {
    return;
  }
  ++audits_;
  copy_.assign_from_view(candidates);
  reference_->decide_into(n_ports, copy_.view(), check_);
  if (check_.selected != out.selected) {
    throw fault::InvariantError(
        "decision audit: decision " + std::to_string(decisions_) + " of '" +
        inner_->name() + "' selected " + render(out.selected) +
        " but a from-scratch decision selects " + render(check_.selected));
  }
}

}  // namespace basrpt::sched
