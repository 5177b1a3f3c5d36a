#include "mvcom/ddl_policy.hpp"

#include <cassert>
#include <stdexcept>

#include "common/stats.hpp"

namespace mvcom::core {

PercentileDdl::PercentileDdl(double quantile) : quantile_(quantile) {
  if (!(quantile > 0.0 && quantile <= 1.0)) {
    throw std::invalid_argument("PercentileDdl: quantile in (0, 1]");
  }
}

double PercentileDdl::deadline(
    std::span<const txn::ShardReport> reports) const {
  assert(!reports.empty());
  std::vector<double> latencies;
  latencies.reserve(reports.size());
  for (const txn::ShardReport& r : reports) {
    latencies.push_back(r.two_phase_latency());
  }
  return common::percentile(latencies, quantile_);
}

DdlAdmission PercentileDdl::admit(
    std::span<const txn::ShardReport> reports) const {
  if (reports.empty()) {
    throw std::invalid_argument("PercentileDdl::admit: no reports");
  }
  DdlAdmission result;
  result.deadline = deadline(reports);
  for (const txn::ShardReport& r : reports) {
    if (r.two_phase_latency() <= result.deadline) {
      result.admitted.push_back(r);
    } else {
      ++result.stragglers;
    }
  }
  return result;
}

EpochInstance make_instance_with_ddl(
    std::span<const txn::ShardReport> reports, const PercentileDdl& policy,
    double alpha, std::uint64_t capacity, std::size_t n_min) {
  const DdlAdmission admission = policy.admit(reports);
  return EpochInstance::from_reports(admission.admitted, alpha, capacity,
                                     n_min, admission.deadline);
}

}  // namespace mvcom::core
