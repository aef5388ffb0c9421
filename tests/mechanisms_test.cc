// Baseline-mechanism tests (ctest label: mechanisms).
//
// Four layers of coverage:
//  1. unit semantics of each baseline (grid cell shape/occupancy, geo-ind
//     noise actually applied, DLS candidate-set shape and entropy pool);
//  2. the leak-contract matrix: every honest mechanism runs under the
//     AdversaryObserver chained with its family's LeakContractChecker and
//     must come out exactly as clean as its declared contract allows;
//  3. the Mechanism::Cloak thread-safety contract: concurrent calls on
//     distinct contexts reproduce the in-order outcomes bit for bit (the
//     TSan `-L mechanisms` lane runs it as a race check too);
//  4. a deliberately-leaky mutant per mechanism (NELA_TEST_LEAKY_VARIANT)
//     proving the detector actually fires -- each mutant trips the checker
//     or the taint scan while its honest twin, under identical scrutiny,
//     stays clean.

// Enables the test-local leaky mechanism variants below. The mutants exist
// only in this translation unit; the library never ships one.
#define NELA_TEST_LEAKY_VARIANT 1

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/leak_contract.h"
#include "audit/observer.h"
#include "audit/taint.h"
#include "audit/tap_chain.h"
#include "cluster/distributed_tconn.h"
#include "cluster/registry.h"
#include "core/cloaking_engine.h"
#include "core/mechanism.h"
#include "core/policy_factory.h"
#include "core/request_context.h"
#include "data/generators.h"
#include "geo/point.h"
#include "geo/rect.h"
#include "mechanisms/cluster_bound.h"
#include "mechanisms/comparative_driver.h"
#include "mechanisms/dummy_locations.h"
#include "mechanisms/factory.h"
#include "mechanisms/geo_ind.h"
#include "mechanisms/grid_cloak.h"
#include "net/network.h"
#include "scenario_fixtures.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace nela::mechanisms {
namespace {

using fixtures::MakeWorld;
using fixtures::SmallWorld;
using fixtures::SmallWorldBounding;

constexpr uint32_t kK = 4;

// One audit stack: observer (taint-armed) + family contract checker,
// chained onto the network tap.
struct AuditStack {
  AuditStack(const data::Dataset& dataset, audit::MechanismFamily family,
             uint32_t k, net::Network* network, bool allow_declared) {
    for (uint32_t i = 0; i < dataset.size(); ++i) {
      taint.TaintPoint(i, dataset.point(i));
      true_points.push_back(dataset.point(i));
    }
    audit::ObserverConfig oc;
    oc.taint = &taint;
    oc.allow_declared_exposure = allow_declared;
    observer.emplace(oc);
    audit::LeakContractConfig cc;
    cc.family = family;
    cc.k = k;
    cc.true_points = true_points;
    checker.emplace(cc);
    chain.Add(&*observer);
    chain.Add(&*checker);
    network->SetTap(&chain);
  }

  audit::TaintSet taint;
  std::vector<geo::Point> true_points;
  std::optional<audit::AdversaryObserver> observer;
  std::optional<audit::LeakContractChecker> checker;
  audit::TapChain chain;
};

core::MechanismOutcome MustCloak(core::Mechanism& mechanism, uint64_t seed,
                                 uint64_t ordinal, data::UserId host) {
  core::RequestContext ctx(seed, ordinal, host);
  core::MechanismOutcome outcome;
  auto status = mechanism.Cloak(ctx, host, &outcome);
  EXPECT_TRUE(status.ok()) << status.message();
  return outcome;
}

uint32_t CountInRect(const data::Dataset& dataset, const geo::Rect& rect) {
  uint32_t count = 0;
  for (uint32_t i = 0; i < dataset.size(); ++i) {
    if (rect.Contains(dataset.point(i))) ++count;
  }
  return count;
}

// True when `value` is an exact center of the G x G candidate grid.
bool IsCellCenter(double value, uint32_t g) {
  const double scaled = value * g - 0.5;
  return scaled == std::floor(scaled) && value > 0.0 && value < 1.0;
}

// ------------------------------------------------------------ factory

TEST(MechanismFactoryTest, BuildsEveryBaselineFamily) {
  SmallWorld world = MakeWorld(11);
  net::Network network(world.dataset.size());
  MechanismParams params;
  for (audit::MechanismFamily family :
       {audit::MechanismFamily::kGridCloak, audit::MechanismFamily::kGeoInd,
        audit::MechanismFamily::kDummyLocations}) {
    auto mechanism =
        MakeMechanism(family, world.dataset, &network, kK, params);
    ASSERT_TRUE(mechanism.ok()) << static_cast<int>(family);
    EXPECT_STREQ(mechanism.value()->name(),
                 audit::MechanismFamilyName(family));
  }
}

TEST(MechanismFactoryTest, ClusterBoundNeedsAnEngine) {
  SmallWorld world = MakeWorld(11);
  auto mechanism = MakeMechanism(audit::MechanismFamily::kClusterBound,
                                 world.dataset, nullptr, kK, {});
  ASSERT_FALSE(mechanism.ok());
  EXPECT_EQ(mechanism.status().code(), util::StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ grid cloak

TEST(GridCloakTest, RegionIsDyadicContainsHostAndKUsers) {
  SmallWorld world = MakeWorld(21);
  net::Network network(world.dataset.size());
  GridCloakMechanism grid(world.dataset, &network, kK, /*max_depth=*/8);

  for (data::UserId host : {0u, 17u, 101u, 199u}) {
    core::MechanismOutcome outcome = MustCloak(grid, 5, host, host);
    ASSERT_TRUE(outcome.satisfied);
    ASSERT_FALSE(outcome.region.empty());
    EXPECT_TRUE(outcome.region.Contains(world.dataset.point(host)));
    EXPECT_GE(CountInRect(world.dataset, outcome.region), kK);
    // Dyadic square: width == height == 2^-d and edges are multiples of it.
    const double w = outcome.region.Width();
    EXPECT_EQ(w, outcome.region.Height());
    const double inv = 1.0 / w;
    EXPECT_EQ(inv, std::floor(inv));
    EXPECT_EQ(outcome.region.min_x() * inv,
              std::floor(outcome.region.min_x() * inv));
    EXPECT_EQ(outcome.region.min_y() * inv,
              std::floor(outcome.region.min_y() * inv));
  }
}

TEST(GridCloakTest, SparsePopulationDegradesInsteadOfLying) {
  util::Rng rng(3);
  data::Dataset dataset = data::GenerateUniform(2, rng);
  net::Network network(dataset.size());
  GridCloakMechanism grid(dataset, &network, /*k=*/5, /*max_depth=*/4);
  core::MechanismOutcome outcome = MustCloak(grid, 5, 0, 0);
  EXPECT_FALSE(outcome.satisfied);
  EXPECT_TRUE(outcome.region.empty());
}

TEST(GridCloakTest, UploadIsDeclaredExposureNotViolation) {
  SmallWorld world = MakeWorld(21);
  net::Network network(world.dataset.size());
  AuditStack audit(world.dataset, audit::MechanismFamily::kGridCloak, kK,
                   &network, /*allow_declared=*/true);
  GridCloakMechanism grid(world.dataset, &network, kK, 8);
  MustCloak(grid, 5, 42, 42);
  network.SetTap(nullptr);
  audit.checker->Finalize();
  EXPECT_TRUE(audit.observer->clean()) << audit.observer->Report();
  EXPECT_TRUE(audit.checker->clean()) << audit.checker->Report();
  // The raw upload crossed the wire and was counted, not flagged.
  EXPECT_GT(audit.observer->declared_exposures(), 0u);
}

// ------------------------------------------------------------ geo-ind

TEST(GeoIndTest, NoiseIsAppliedAndSeedReproducible) {
  SmallWorld world = MakeWorld(31);
  net::Network network(world.dataset.size());
  GeoIndMechanism geo(world.dataset, &network, /*epsilon=*/20.0);

  core::MechanismOutcome a = MustCloak(geo, 9, 3, 55);
  core::MechanismOutcome b = MustCloak(geo, 9, 3, 55);
  ASSERT_EQ(a.probes.size(), 1u);
  ASSERT_EQ(b.probes.size(), 1u);
  // Same (seed, ordinal) -> bit-identical probe; the noise is real.
  EXPECT_EQ(a.probes[0].x, b.probes[0].x);
  EXPECT_EQ(a.probes[0].y, b.probes[0].y);
  const geo::Point truth = world.dataset.point(55);
  EXPECT_NE(a.probes[0].x, truth.x);
  EXPECT_NE(a.probes[0].y, truth.y);

  // A different ordinal draws a different sub-stream.
  core::MechanismOutcome c = MustCloak(geo, 9, 4, 55);
  EXPECT_FALSE(a.probes[0].x == c.probes[0].x &&
               a.probes[0].y == c.probes[0].y);
}

TEST(GeoIndTest, CleanUnderStrictAudit) {
  SmallWorld world = MakeWorld(31);
  net::Network network(world.dataset.size());
  AuditStack audit(world.dataset, audit::MechanismFamily::kGeoInd, kK,
                   &network, /*allow_declared=*/false);
  GeoIndMechanism geo(world.dataset, &network, 20.0);
  for (uint64_t ordinal = 0; ordinal < 16; ++ordinal) {
    MustCloak(geo, 13, ordinal, static_cast<data::UserId>(ordinal * 7));
  }
  network.SetTap(nullptr);
  audit.checker->Finalize();
  EXPECT_TRUE(audit.observer->clean()) << audit.observer->Report();
  EXPECT_TRUE(audit.checker->clean()) << audit.checker->Report();
  EXPECT_EQ(audit.observer->declared_exposures(), 0u);
}

// ------------------------------------------------------------ dummy set

TEST(DummyLocationTest, CandidatesAreCellCentersIncludingOwnCell) {
  SmallWorld world = MakeWorld(41);
  net::Network network(world.dataset.size());
  constexpr uint32_t kG = 16;
  DummyLocationMechanism dls(world.dataset, &network, kK, kG,
                             /*subset_draws=*/5);
  const data::UserId host = 77;
  core::MechanismOutcome outcome = MustCloak(dls, 17, 0, host);
  ASSERT_TRUE(outcome.satisfied);
  ASSERT_EQ(outcome.probes.size(), kK);

  const geo::Point truth = world.dataset.point(host);
  auto cell = [](double v) {
    uint32_t c = static_cast<uint32_t>(v * kG);
    return c >= kG ? kG - 1 : c;
  };
  const uint64_t own_cell = uint64_t{cell(truth.y)} * kG + cell(truth.x);
  std::set<uint64_t> cells;
  for (const geo::Point& p : outcome.probes) {
    EXPECT_TRUE(IsCellCenter(p.x, kG)) << p.x;
    EXPECT_TRUE(IsCellCenter(p.y, kG)) << p.y;
    cells.insert(uint64_t{cell(p.y)} * kG + cell(p.x));
  }
  EXPECT_EQ(cells.size(), kK);  // k DISTINCT cells
  EXPECT_TRUE(cells.count(own_cell) == 1);
}

TEST(DummyLocationTest, CleanUnderStrictAudit) {
  SmallWorld world = MakeWorld(41);
  net::Network network(world.dataset.size());
  AuditStack audit(world.dataset, audit::MechanismFamily::kDummyLocations, kK,
                   &network, /*allow_declared=*/false);
  DummyLocationMechanism dls(world.dataset, &network, kK, 16, 5);
  for (uint64_t ordinal = 0; ordinal < 16; ++ordinal) {
    MustCloak(dls, 19, ordinal, static_cast<data::UserId>(ordinal * 11));
  }
  network.SetTap(nullptr);
  audit.checker->Finalize();
  EXPECT_TRUE(audit.observer->clean()) << audit.observer->Report();
  EXPECT_TRUE(audit.checker->clean()) << audit.checker->Report();
}

// ------------------------------------------------- comparative campaigns

TEST(ComparativeCampaignTest, EveryFamilyHonorsItsContract) {
  SmallWorld world = MakeWorld(51);
  for (int f = 0; f < audit::kMechanismFamilyCount; ++f) {
    const auto family = static_cast<audit::MechanismFamily>(f);
    CampaignConfig config;
    config.family = family;
    config.k = kK;
    config.requests = 24;
    auto result = RunCampaign(world.dataset, world.graph, config);
    ASSERT_TRUE(result.ok()) << result.status().message();
    const CampaignResult& r = result.value();
    EXPECT_EQ(r.mechanism, audit::MechanismFamilyName(family));
    EXPECT_EQ(r.observer_violations, 0u) << r.mechanism;
    EXPECT_EQ(r.contract_violations, 0u) << r.mechanism;
    EXPECT_GT(r.satisfied, 0u) << r.mechanism;
    EXPECT_GT(r.messages_on_wire, 0u) << r.mechanism;
    if (family == audit::MechanismFamily::kGridCloak) {
      // The declared client->anonymizer channel: counted, never flagged.
      EXPECT_GT(r.declared_exposures, 0u);
    } else {
      EXPECT_EQ(r.declared_exposures, 0u) << r.mechanism;
    }
    if (family == audit::MechanismFamily::kClusterBound) {
      // Only the native scheme runs the bounding protocol, so only it
      // gives the adversary a provable (but safely wide) interval.
      EXPECT_TRUE(std::isfinite(r.tightest_learned_width));
      EXPECT_GT(r.tightest_learned_width, 1e-9);
    } else {
      EXPECT_TRUE(std::isinf(r.tightest_learned_width)) << r.mechanism;
    }
  }
}

TEST(ComparativeCampaignTest, DeterministicUnderSameSeeds) {
  SmallWorld world = MakeWorld(51);
  CampaignConfig config;
  config.family = audit::MechanismFamily::kGeoInd;
  config.k = kK;
  config.requests = 16;
  auto a = RunCampaign(world.dataset, world.graph, config);
  auto b = RunCampaign(world.dataset, world.graph, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().mean_query_cost, b.value().mean_query_cost);
  EXPECT_EQ(a.value().mean_candidate_count, b.value().mean_candidate_count);
  EXPECT_EQ(a.value().messages_on_wire, b.value().messages_on_wire);
}

// ------------------------------------------------------ concurrent Cloak

// One request's deterministic facts: satisfied, then the region's edge bits
// (if any), then every probe's coordinate bits.
std::vector<uint64_t> OutcomeBits(const core::MechanismOutcome& outcome) {
  std::vector<uint64_t> bits = {outcome.satisfied ? 1u : 0u};
  const geo::Rect& r = outcome.region;
  if (!r.empty()) {
    for (double edge : {r.min_x(), r.min_y(), r.max_x(), r.max_y()}) {
      bits.push_back(util::DoubleBits(edge));
    }
  }
  for (const geo::Point& probe : outcome.probes) {
    bits.push_back(util::DoubleBits(probe.x));
    bits.push_back(util::DoubleBits(probe.y));
  }
  return bits;
}

// Mechanism::Cloak must be safe to call concurrently on distinct contexts,
// with every draw from the request's own (master_seed, ordinal) sub-stream.
// Each baseline serves the same ordinals in order, then from ThreadPool
// workers at 4 and 8 threads on one shared instance and network: every
// ordinal's region, probe bits and satisfaction must match the in-order
// run, and the audit stack must stay clean in every run.
TEST(MechanismConcurrencyTest, ConcurrentCloakMatchesInOrderPerOrdinal) {
  SmallWorld world = MakeWorld(61);
  constexpr uint64_t kRequests = 96;
  for (audit::MechanismFamily family :
       {audit::MechanismFamily::kGridCloak, audit::MechanismFamily::kGeoInd,
        audit::MechanismFamily::kDummyLocations}) {
    const char* name = audit::MechanismFamilyName(family);
    std::vector<std::vector<uint64_t>> in_order;
    for (uint32_t threads : {1u, 4u, 8u}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      net::Network network(world.dataset.size());
      AuditStack audit(world.dataset, family, kK, &network,
                       family == audit::MechanismFamily::kGridCloak);
      auto made = MakeMechanism(family, world.dataset, &network, kK, {});
      ASSERT_TRUE(made.ok());
      std::vector<std::vector<uint64_t>> served(kRequests);
      // The in-order run is the 1-thread pool: worker 0 is the caller.
      std::atomic<uint64_t> next{0};
      util::ThreadPool pool(threads);
      pool.RunOnAllThreads([&](uint32_t) {
        for (uint64_t ordinal = next++; ordinal < kRequests; ordinal = next++) {
          const auto host =
              static_cast<data::UserId>(ordinal * 7 % world.dataset.size());
          served[ordinal] =
              OutcomeBits(MustCloak(*made.value(), 77, ordinal, host));
        }
      });
      network.SetTap(nullptr);
      audit.checker->Finalize();
      EXPECT_TRUE(audit.observer->clean()) << audit.observer->Report();
      EXPECT_TRUE(audit.checker->clean()) << audit.checker->Report();
      if (threads == 1) in_order = served;
      EXPECT_EQ(served, in_order);
    }
    uint64_t satisfied = 0;
    for (const std::vector<uint64_t>& bits : in_order) satisfied += bits[0];
    EXPECT_GT(satisfied, 0u) << name;
  }
}

#if NELA_TEST_LEAKY_VARIANT
// ------------------------------------------------------- leaky mutants
//
// Each mutant is the honest mechanism with one privacy bug injected; the
// audit stack that passes the honest twin must flag the mutant. This is
// the detector's own test suite: a checker that cannot catch its
// mechanism's canonical bug is vacuous.

// Geo-ind with the noise knocked out: ships the true coordinates under the
// kNoisedCoordinate tag. The taint scan (bit-exact) and the contract
// (bit-equal to a true point) must both fire.
class LeakyGeoIndMechanism : public core::Mechanism {
 public:
  LeakyGeoIndMechanism(const data::Dataset& dataset, net::Network* network)
      : dataset_(dataset), network_(network) {}
  const char* name() const override { return "geo_ind_leaky"; }
  [[nodiscard]] util::Status Cloak(core::RequestContext& ctx,
                                   data::UserId host,
                                   core::MechanismOutcome* outcome) override {
    const geo::Point truth = dataset_.point(host);
    net::Message request;
    request.from = host;
    request.to = host;
    request.kind = net::MessageKind::kServiceRequest;
    request.bytes = 16;
    request.payload.Add(net::FieldTag::kNoisedCoordinate, host, truth.x);
    request.payload.Add(net::FieldTag::kNoisedCoordinate, host, truth.y);
    network_->Send(request, &ctx.scope());
    outcome->probes = {truth};
    outcome->satisfied = true;
    outcome->messages_sent = 1;
    return util::Status::Ok();
  }

 private:
  const data::Dataset& dataset_;
  net::Network* network_;
};

// Grid cloak that publishes a tight, non-dyadic box around the host --
// smaller than any k-occupant cell, so it serves better utility by
// breaking the contract's alignment and occupancy promises.
class LeakyGridCloakMechanism : public core::Mechanism {
 public:
  LeakyGridCloakMechanism(const data::Dataset& dataset, net::Network* network)
      : dataset_(dataset), network_(network) {}
  const char* name() const override { return "grid_cloak_leaky"; }
  [[nodiscard]] util::Status Cloak(core::RequestContext& ctx,
                                   data::UserId host,
                                   core::MechanismOutcome* outcome) override {
    const geo::Point truth = dataset_.point(host);
    const geo::Rect region(truth.x - 0.001, truth.y - 0.001, truth.x + 0.001,
                           truth.y + 0.001);
    net::Message request;
    request.from = host;
    request.to = host;
    request.kind = net::MessageKind::kServiceRequest;
    request.bytes = 32;
    request.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                        region.min_x());
    request.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                        region.min_y());
    request.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                        region.max_x());
    request.payload.Add(net::FieldTag::kCloakedRegion, net::kPublicSubject,
                        region.max_y());
    network_->Send(request, &ctx.scope());
    outcome->region = region;
    outcome->satisfied = true;
    outcome->messages_sent = 1;
    return util::Status::Ok();
  }

 private:
  const data::Dataset& dataset_;
  net::Network* network_;
};

// DLS that "snaps" its own location by not snapping at all: the host's
// raw position rides along as one of the candidates. Both detectors fire:
// the taint scan (raw bits on the wire) and the contract (a candidate
// that is not an exact cell center).
class LeakyDummyLocationMechanism : public core::Mechanism {
 public:
  LeakyDummyLocationMechanism(const data::Dataset& dataset,
                              net::Network* network, uint32_t k, uint32_t g)
      : honest_(dataset, network, k, g, 5),
        dataset_(dataset),
        network_(network) {}
  const char* name() const override { return "dummy_locations_leaky"; }
  [[nodiscard]] util::Status Cloak(core::RequestContext& ctx,
                                   data::UserId host,
                                   core::MechanismOutcome* outcome) override {
    auto status = honest_.Cloak(ctx, host, outcome);
    if (!status.ok()) return status;
    // The bug: one more "candidate" that is the true position itself.
    const geo::Point truth = dataset_.point(host);
    net::Message request;
    request.from = host;
    request.to = host;
    request.kind = net::MessageKind::kServiceRequest;
    request.bytes = 16;
    request.payload.Add(net::FieldTag::kCandidateLocation, host, truth.x);
    request.payload.Add(net::FieldTag::kCandidateLocation, host, truth.y);
    network_->Send(request, &ctx.scope());
    outcome->probes.push_back(truth);
    ++outcome->messages_sent;
    return util::Status::Ok();
  }

 private:
  DummyLocationMechanism honest_;
  const data::Dataset& dataset_;
  net::Network* network_;
};

// DLS that sends k-1 honest-looking candidates but omits the host's own
// cell entirely -- every field is a legal cell center, so only the
// Finalize-time union check can catch it.
class CowardDummyLocationMechanism : public core::Mechanism {
 public:
  CowardDummyLocationMechanism(const data::Dataset& dataset,
                               net::Network* network, uint32_t k, uint32_t g)
      : dataset_(dataset), network_(network), k_(k), g_(g) {}
  const char* name() const override { return "dummy_locations_coward"; }
  [[nodiscard]] util::Status Cloak(core::RequestContext& ctx,
                                   data::UserId host,
                                   core::MechanismOutcome* outcome) override {
    const geo::Point truth = dataset_.point(host);
    const auto cell = [this](double v) {
      uint32_t c = static_cast<uint32_t>(v * g_);
      return c >= g_ ? g_ - 1 : c;
    };
    const uint32_t own_cx = cell(truth.x);
    // k-1 cells marching away from the host's column, own cell skipped.
    uint32_t sent = 0;
    for (uint32_t i = 0; i < g_ && sent + 1 < k_; ++i) {
      if (i == own_cx) continue;
      const double cx = (i + 0.5) / g_;
      const double cy = (cell(truth.y) + 0.5) / g_;
      net::Message request;
      request.from = host;
      request.to = host;
      request.kind = net::MessageKind::kServiceRequest;
      request.bytes = 16;
      request.payload.Add(net::FieldTag::kCandidateLocation, host, cx);
      request.payload.Add(net::FieldTag::kCandidateLocation, host, cy);
      network_->Send(request, &ctx.scope());
      outcome->probes.push_back(geo::Point{cx, cy});
      ++sent;
    }
    outcome->satisfied = true;
    outcome->messages_sent = sent;
    return util::Status::Ok();
  }

 private:
  const data::Dataset& dataset_;
  net::Network* network_;
  uint32_t k_;
  uint32_t g_;
};

// Runs `leaky` and its honest `control` over the same hosts under
// identical audit stacks; asserts the control is clean and the mutant is
// caught by observer taint, the contract checker, or both.
struct MutantVerdict {
  bool control_clean = false;
  bool mutant_caught = false;
};

MutantVerdict RunMutantArm(const SmallWorld& world,
                           audit::MechanismFamily family, bool allow_declared,
                           core::Mechanism& control, core::Mechanism& leaky,
                           net::Network& network) {
  MutantVerdict verdict;
  {
    AuditStack audit(world.dataset, family, kK, &network, allow_declared);
    for (uint64_t ordinal = 0; ordinal < 8; ++ordinal) {
      MustCloak(control, 23, ordinal, static_cast<data::UserId>(ordinal * 13));
    }
    network.SetTap(nullptr);
    audit.checker->Finalize();
    verdict.control_clean =
        audit.observer->clean() && audit.checker->clean();
    EXPECT_TRUE(verdict.control_clean)
        << audit.observer->Report() << audit.checker->Report();
  }
  {
    AuditStack audit(world.dataset, family, kK, &network, allow_declared);
    for (uint64_t ordinal = 0; ordinal < 8; ++ordinal) {
      MustCloak(leaky, 23, ordinal, static_cast<data::UserId>(ordinal * 13));
    }
    network.SetTap(nullptr);
    audit.checker->Finalize();
    verdict.mutant_caught =
        !audit.observer->clean() || !audit.checker->clean();
    EXPECT_TRUE(verdict.mutant_caught)
        << "mutant escaped both detectors: " << leaky.name();
  }
  return verdict;
}

TEST(LeakyMutantTest, ZeroNoiseGeoIndIsCaught) {
  SmallWorld world = MakeWorld(61);
  net::Network network(world.dataset.size());
  GeoIndMechanism control(world.dataset, &network, 20.0);
  LeakyGeoIndMechanism leaky(world.dataset, &network);
  RunMutantArm(world, audit::MechanismFamily::kGeoInd,
               /*allow_declared=*/false, control, leaky, network);
}

TEST(LeakyMutantTest, MisalignedUnderOccupiedGridIsCaught) {
  SmallWorld world = MakeWorld(61);
  net::Network network(world.dataset.size());
  GridCloakMechanism control(world.dataset, &network, kK, 8);
  LeakyGridCloakMechanism leaky(world.dataset, &network);
  RunMutantArm(world, audit::MechanismFamily::kGridCloak,
               /*allow_declared=*/true, control, leaky, network);
}

TEST(LeakyMutantTest, RawCandidateDummySetIsCaught) {
  SmallWorld world = MakeWorld(61);
  net::Network network(world.dataset.size());
  DummyLocationMechanism control(world.dataset, &network, kK, 16, 5);
  LeakyDummyLocationMechanism leaky(world.dataset, &network, kK, 16);
  RunMutantArm(world, audit::MechanismFamily::kDummyLocations,
               /*allow_declared=*/false, control, leaky, network);
}

TEST(LeakyMutantTest, MissingOwnCellDummySetIsCaughtAtFinalize) {
  SmallWorld world = MakeWorld(61);
  net::Network network(world.dataset.size());
  DummyLocationMechanism control(world.dataset, &network, kK, 16, 5);
  CowardDummyLocationMechanism leaky(world.dataset, &network, kK, 16);
  MutantVerdict verdict =
      RunMutantArm(world, audit::MechanismFamily::kDummyLocations,
                   /*allow_declared=*/false, control, leaky, network);
  EXPECT_TRUE(verdict.mutant_caught);
}
#endif  // NELA_TEST_LEAKY_VARIANT

// ----------------------------------------- native scheme through the seam

TEST(ClusterBoundMechanismTest, AdaptsEngineOutcomeThroughTheSeam) {
  SmallWorld world = MakeWorld(71);
  cluster::Registry registry(world.dataset.size());
  core::CloakingEngine engine(
      world.dataset,
      std::make_unique<cluster::DistributedTConnClusterer>(world.graph, kK,
                                                           &registry),
      &registry, core::MakeSecurePolicyFactory(SmallWorldBounding()));
  ClusterBoundMechanism mechanism(&engine);
  EXPECT_STREQ(mechanism.name(), "cluster_bound");

  core::MechanismOutcome outcome = MustCloak(mechanism, 1, 0, 17);
  ASSERT_TRUE(outcome.satisfied);
  ASSERT_FALSE(outcome.region.empty());
  EXPECT_TRUE(outcome.region.Contains(world.dataset.point(17)));
  EXPECT_GT(outcome.messages_sent, 0u);
}

}  // namespace
}  // namespace nela::mechanisms
