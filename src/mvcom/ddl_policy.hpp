#pragma once
// The deadline (DDL) rule for the final committee (§III-A).
//
// The paper deliberately does not prescribe how the DDL is set: "this paper
// is not trying to tell how to set such the DDL. ... In practice, the DDL
// can be set to the moment when a predefined percentage of committees
// submit their shards" — and Alg. 1 line 29 stops listening once N_max of
// the member committees have arrived. This module implements that rule and
// the admission step (a committee whose two-phase latency exceeds the
// deadline is a straggler and never enters I_j), so benches can ablate the
// percentage — a knob the paper leaves open.

#include <cstdint>
#include <span>
#include <vector>

#include "mvcom/problem.hpp"
#include "txn/workload.hpp"

namespace mvcom::core {

/// The arrived committee reports a deadline admits.
struct DdlAdmission {
  double deadline = 0.0;                   // t_j
  std::vector<txn::ShardReport> admitted;  // l_i <= t_j, arrival order kept
  std::size_t stragglers = 0;              // reports refused by the DDL
};

/// t_j is the q-quantile (linear interpolation) of the two-phase latencies:
/// q = 0.8 reproduces the paper's "N_max is set to 80%", and q = 1 is the
/// paper's default t_j = max_i l_i, which EpochInstance also derives when
/// given no deadline. Committees slower than t_j are stragglers; the
/// fastest committee never is.
class PercentileDdl {
 public:
  /// Throws std::invalid_argument unless quantile ∈ (0, 1].
  explicit PercentileDdl(double quantile);

  /// t_j over the arrived reports. Precondition: non-empty.
  [[nodiscard]] double deadline(
      std::span<const txn::ShardReport> reports) const;

  /// Computes t_j and drops stragglers. Throws std::invalid_argument on an
  /// empty span.
  [[nodiscard]] DdlAdmission admit(
      std::span<const txn::ShardReport> reports) const;

 private:
  double quantile_;
};

/// Admission → EpochInstance in one step, at the policy's deadline.
[[nodiscard]] EpochInstance make_instance_with_ddl(
    std::span<const txn::ShardReport> reports, const PercentileDdl& policy,
    double alpha, std::uint64_t capacity, std::size_t n_min);

}  // namespace mvcom::core
