#include "syndog/mitigate/recorder.hpp"

namespace syndog::mitigate {

MitigationRecorder::MitigationRecorder(MitigationController& controller)
    : controller_(controller) {
  controller_.add_edge_listener(
      [this](const MitigationController::StageEdge& edge) { on_edge(edge); });
}

void MitigationRecorder::on_edge(
    const MitigationController::StageEdge& edge) {
  edges_.push_back(edge);
  if (!first_engaged_at_ && edge.to != Stage::kObserve) {
    first_engaged_at_ = edge.at;
  }
  if (!first_quarantined_at_ && edge.to == Stage::kQuarantine) {
    first_quarantined_at_ = edge.at;
  }
  // The listener runs after the controller applied the transition, so
  // aggregate_stage() reflects the new per-target stages.
  const Stage aggregate = controller_.aggregate_stage();
  if (aggregate == aggregate_) return;
  aggregate_ = aggregate;
  if (aggregate == Stage::kObserve) fully_released_at_ = edge.at;
}

}  // namespace syndog::mitigate
