// Tests for the percentile DDL rule (§III-A / Alg. 1 line 29).

#include "mvcom/ddl_policy.hpp"

#include <gtest/gtest.h>

#include <limits>

// The supervisor's per-submission outcome (core::Admission) shares the
// namespace with the DDL's admitted set (core::DdlAdmission); including
// both headers here turns a clash between the two names into a build
// failure.
#include "mvcom/supervisor.hpp"

namespace {

using mvcom::core::Admission;
using mvcom::core::DdlAdmission;
using mvcom::core::EpochInstance;
using mvcom::core::make_instance_with_ddl;
using mvcom::core::PercentileDdl;
using mvcom::txn::ShardReport;

std::vector<ShardReport> reports_with_latencies(
    std::initializer_list<double> latencies) {
  std::vector<ShardReport> reports;
  std::uint32_t id = 0;
  for (const double l : latencies) {
    ShardReport r;
    r.committee_id = id++;
    r.tx_count = 100 + 10 * id;
    r.formation_latency = l;
    r.consensus_latency = 0.0;
    reports.push_back(r);
  }
  return reports;
}

TEST(PercentileDdlTest, FullQuantileAdmitsEveryoneAtTheMax) {
  const auto reports = reports_with_latencies({800, 900, 1200, 1000});
  PercentileDdl policy(1.0);
  const auto admission = policy.admit(reports);
  EXPECT_DOUBLE_EQ(admission.deadline, 1200.0);
  EXPECT_EQ(admission.admitted.size(), 4u);
  EXPECT_EQ(admission.stragglers, 0u);
}

TEST(PercentileDdlTest, DropsTheSlowestTail) {
  // 10 committees, latencies 100..1000; the 0.8 quantile (linear
  // interpolation) admits the fastest 9... compute: values 100..1000,
  // q=0.8 → position 7.2 → 820. Committees above 820 are stragglers.
  const auto reports = reports_with_latencies(
      {100, 200, 300, 400, 500, 600, 700, 800, 900, 1000});
  PercentileDdl policy(0.8);
  const auto admission = policy.admit(reports);
  EXPECT_NEAR(admission.deadline, 820.0, 1e-9);
  EXPECT_EQ(admission.admitted.size(), 8u);
  EXPECT_EQ(admission.stragglers, 2u);
  for (const auto& r : admission.admitted) {
    EXPECT_LE(r.two_phase_latency(), admission.deadline);
  }
}

TEST(PercentileDdlTest, FullQuantileEqualsMaxLatency) {
  // q = 1 is the paper's t_j = max_i l_i: the deadline EpochInstance
  // derives when it is given none.
  const auto reports = reports_with_latencies({5, 9, 3, 7});
  PercentileDdl full(1.0);
  EXPECT_DOUBLE_EQ(full.deadline(reports), 9.0);
  const EpochInstance derived =
      EpochInstance::from_reports(reports, 1.5, 10'000, 0);
  EXPECT_DOUBLE_EQ(full.deadline(reports), derived.deadline());
}

TEST(PercentileDdlTest, RejectsBadQuantiles) {
  EXPECT_THROW(PercentileDdl(0.0), std::invalid_argument);
  EXPECT_THROW(PercentileDdl(1.5), std::invalid_argument);
  EXPECT_THROW(PercentileDdl(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(PercentileDdlTest, EmptyReportsThrow) {
  PercentileDdl policy(1.0);
  EXPECT_THROW(policy.admit({}), std::invalid_argument);
}

TEST(DdlAdmissionTest, CoexistsWithTheSupervisorAdmissionOutcome) {
  const auto reports = reports_with_latencies({100, 200, 300});
  const DdlAdmission admission = PercentileDdl(0.5).admit(reports);
  EXPECT_DOUBLE_EQ(admission.deadline, 200.0);
  EXPECT_EQ(admission.admitted.size(), 2u);
  EXPECT_EQ(admission.stragglers, 1u);
  EXPECT_STREQ(mvcom::core::to_string(Admission::kRefused), "refused");
}

TEST(MakeInstanceWithDdlTest, StragglersNeverEnterTheInstance) {
  const auto reports = reports_with_latencies({100, 200, 900, 1000});
  PercentileDdl policy(0.5);
  const EpochInstance instance =
      make_instance_with_ddl(reports, policy, 1.5, 10'000, 0);
  EXPECT_LT(instance.size(), reports.size());
  for (const auto& c : instance.committees()) {
    EXPECT_LE(c.latency, instance.deadline());
  }
  // The instance deadline is the policy's, not the admitted max.
  EXPECT_DOUBLE_EQ(instance.deadline(), policy.deadline(reports));
}

TEST(MakeInstanceWithDdlTest, LowestQuantileStillAdmitsTheFastest) {
  // The q-quantile never falls below the smallest latency, so even a
  // near-zero q leaves the fastest committee in the instance.
  const auto reports = reports_with_latencies({700, 100, 400, 100.5});
  const EpochInstance instance =
      make_instance_with_ddl(reports, PercentileDdl(1e-9), 1.5, 10'000, 0);
  ASSERT_EQ(instance.size(), 1u);
  EXPECT_EQ(instance.committees()[0].id, 1u);
  EXPECT_GE(instance.deadline(), 100.0);
}

TEST(MakeInstanceWithDdlTest, TighterDdlShrinksAges) {
  // A tighter deadline leaves fresher shards: cumulative age of the
  // admitted set is smaller under the 0.6-quantile than under max-latency.
  const auto reports = reports_with_latencies(
      {100, 300, 500, 700, 900, 1100, 1300, 1500, 1700, 1900});
  PercentileDdl loose(1.0);
  PercentileDdl tight(0.6);
  const EpochInstance loose_inst =
      make_instance_with_ddl(reports, loose, 1.5, 100'000, 0);
  const EpochInstance tight_inst =
      make_instance_with_ddl(reports, tight, 1.5, 100'000, 0);
  mvcom::core::Selection all_loose(loose_inst.size(), 1);
  mvcom::core::Selection all_tight(tight_inst.size(), 1);
  EXPECT_LT(tight_inst.cumulative_age(all_tight),
            loose_inst.cumulative_age(all_loose));
}

}  // namespace
