// Mitigation timeline and collateral recorder.
//
// Subscribes to a MitigationController's stage edges and keeps the
// operator-facing accounting: when mitigation first engaged, when the
// flood's last target was fully released (time-to-mitigate /
// time-to-full-recovery), and every stage edge in order.
#pragma once

#include <optional>
#include <vector>

#include "syndog/mitigate/controller.hpp"
#include "syndog/util/time.hpp"

namespace syndog::mitigate {

class MitigationRecorder {
 public:
  /// Subscribes to `controller` (which must outlive the recorder).
  explicit MitigationRecorder(MitigationController& controller);

  MitigationRecorder(const MitigationRecorder&) = delete;
  MitigationRecorder& operator=(const MitigationRecorder&) = delete;

  /// First observe -> mitigating edge, if any (time-to-mitigate is this
  /// minus the attack onset the caller knows).
  [[nodiscard]] std::optional<util::SimTime> first_engaged_at() const {
    return first_engaged_at_;
  }
  [[nodiscard]] std::optional<util::SimTime> first_quarantined_at() const {
    return first_quarantined_at_;
  }
  /// Most recent return of the *aggregate* stage to observe — with all
  /// targets released, the stub is fully recovered.
  [[nodiscard]] std::optional<util::SimTime> fully_released_at() const {
    return fully_released_at_;
  }
  /// True while any target sits above observe.
  [[nodiscard]] bool mitigating() const {
    return aggregate_ != Stage::kObserve;
  }

  /// Every stage edge seen, in order.
  [[nodiscard]] const std::vector<MitigationController::StageEdge>& edges()
      const {
    return edges_;
  }

 private:
  void on_edge(const MitigationController::StageEdge& edge);

  MitigationController& controller_;
  std::vector<MitigationController::StageEdge> edges_;
  Stage aggregate_ = Stage::kObserve;
  std::optional<util::SimTime> first_engaged_at_;
  std::optional<util::SimTime> first_quarantined_at_;
  std::optional<util::SimTime> fully_released_at_;
};

}  // namespace syndog::mitigate
