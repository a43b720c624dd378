// Differential tests for the src/simd kernel variants and the dispatch
// layer: the AVX2 variants must be bit-identical to the scalar reference
// on NaN-free input, and scheduler decisions must not depend on which
// ISA is active.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "sched/candidate_view.hpp"
#include "sched/factory.hpp"
#include "simd/dispatch.hpp"
#include "simd/kernels.hpp"

namespace basrpt::simd {
namespace {

/// Restores the process-wide active ISA when a test that overrides it
/// exits (tests run in one process; leaking an override would couple
/// them).
class IsaGuard {
 public:
  IsaGuard() : saved_(active_isa()) {}
  ~IsaGuard() { set_active_isa(saved_); }

 private:
  Isa saved_;
};

/// The ISA tables available on this build + CPU, scalar first.
std::vector<const detail::KernelTable*> available_tables() {
  std::vector<const detail::KernelTable*> tables{&detail::scalar_table()};
#if defined(BASRPT_SIMD_ENABLED)
  if (best_supported_isa() == Isa::kAvx2) {
    tables.push_back(&detail::avx2_table());
  }
#endif
  return tables;
}

/// Lane lengths that cover the vector bodies (4- and 8-wide) plus every
/// tail remainder.
const std::size_t kLens[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 257};

std::vector<double> random_lane(Rng& rng, std::size_t n) {
  std::vector<double> x(n);
  for (auto& v : x) {
    const auto pick = rng.uniform_int(0, 9);
    if (pick == 0) {
      v = rng.bernoulli(0.5) ? 0.0 : -0.0;
    } else if (pick == 1) {
      v = static_cast<double>(rng.uniform_int(-4, 4)) * 1500.0;  // ties
    } else {
      v = rng.uniform(-1e9, 1e9);
    }
  }
  return x;
}

TEST(Kernels, DifferentialsCoverAvx2WhenTheCpuHasIt) {
  EXPECT_EQ(available_tables().size(),
            best_supported_isa() == Isa::kAvx2 ? 2u : 1u);
}

TEST(Kernels, ComputeKeysVariantsBitIdentical) {
  Rng rng(11);
  for (const std::size_t n : kLens) {
    const std::vector<double> sr = random_lane(rng, n);
    std::vector<double> backlog = random_lane(rng, n);
    for (auto& b : backlog) b = std::fabs(b);
    for (const KeyOp op : {KeyOp::kCopy, KeyOp::kFastBasrpt,
                           KeyOp::kThresholdSrpt, KeyOp::kNegBacklog}) {
      std::vector<double> ref(n), got(n);
      detail::scalar_table().compute_keys(op, 2500.0 / 144.0, 1e12, sr.data(),
                                          backlog.data(), n, ref.data());
      for (const auto* t : available_tables()) {
        t->compute_keys(op, 2500.0 / 144.0, 1e12, sr.data(), backlog.data(),
                        n, got.data());
        EXPECT_EQ(std::memcmp(ref.data(), got.data(), n * sizeof(double)), 0)
            << "op=" << static_cast<int>(op) << " n=" << n;
      }
    }
  }
}

TEST(Kernels, BoundsOkI32VariantsAgree) {
  for (const std::size_t n : kLens) {
    std::vector<std::int32_t> x(n, 7);
    for (const auto* t : available_tables()) {
      EXPECT_TRUE(t->bounds_ok_i32(x.data(), n, 8));
      EXPECT_FALSE(t->bounds_ok_i32(x.data(), n, 7));  // v == limit
    }
    // A single violation at every position (covers vector body lanes and
    // the scalar tail), negative and too-large.
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const std::int32_t bad : {-1, 8, 1 << 30}) {
        x[pos] = bad;
        for (const auto* t : available_tables()) {
          EXPECT_FALSE(t->bounds_ok_i32(x.data(), n, 8))
              << "pos=" << pos << " bad=" << bad;
        }
        x[pos] = 7;
      }
    }
  }
}

TEST(Kernels, GatherVariantsMatchScalar) {
  Rng rng(16);
  const std::size_t entries = 300;
  std::vector<sched::VoqCandidate> aos(entries);
  for (std::size_t e = 0; e < entries; ++e) {
    aos[e].ingress = static_cast<sched::PortId>(rng.uniform_int(0, 47));
    aos[e].backlog = rng.uniform(0.0, 1e6);
    aos[e].flow_count = static_cast<std::size_t>(rng.uniform_int(0, 1000));
    aos[e].shortest_flow = rng.uniform_int(0, 1 << 30);
  }
  constexpr std::size_t stride = sizeof(sched::VoqCandidate);
  for (const std::size_t n : kLens) {
    std::vector<std::uint32_t> idx(n);
    for (auto& i : idx) {
      i = static_cast<std::uint32_t>(rng.uniform_int(0, entries - 1));
    }
    std::vector<double> f64_ref(n), f64_got(n);
    std::vector<std::int64_t> i64_ref(n), i64_got(n);
    std::vector<std::int32_t> i32_ref(n), i32_got(n);
    std::vector<std::uint32_t> u32_ref(n), u32_got(n);
    const auto& s = detail::scalar_table();
    const char* base = reinterpret_cast<const char*>(aos.data());
    s.gather_f64(base + offsetof(sched::VoqCandidate, backlog), stride,
                 idx.data(), n, f64_ref.data());
    s.gather_i64(base + offsetof(sched::VoqCandidate, shortest_flow), stride,
                 idx.data(), n, i64_ref.data());
    s.gather_i32(base + offsetof(sched::VoqCandidate, ingress), stride,
                 idx.data(), n, i32_ref.data());
    s.gather_u32_from_size(base + offsetof(sched::VoqCandidate, flow_count),
                           stride, idx.data(), n, u32_ref.data());
    for (const auto* t : available_tables()) {
      t->gather_f64(base + offsetof(sched::VoqCandidate, backlog), stride,
                    idx.data(), n, f64_got.data());
      t->gather_i64(base + offsetof(sched::VoqCandidate, shortest_flow),
                    stride, idx.data(), n, i64_got.data());
      t->gather_i32(base + offsetof(sched::VoqCandidate, ingress), stride,
                    idx.data(), n, i32_got.data());
      t->gather_u32_from_size(
          base + offsetof(sched::VoqCandidate, flow_count), stride,
          idx.data(), n, u32_got.data());
      EXPECT_EQ(f64_ref, f64_got);
      EXPECT_EQ(i64_ref, i64_got);
      EXPECT_EQ(i32_ref, i32_got);
      EXPECT_EQ(u32_ref, u32_got);
    }
  }
}

TEST(Dispatch, ActiveIsaOverrideRoundTrips) {
  IsaGuard guard;
  set_active_isa(Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  set_active_isa(best_supported_isa());
  EXPECT_EQ(active_isa(), best_supported_isa());
}

TEST(Dispatch, IsaNamesAreStable) {
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
}

TEST(Dispatch, ParseIsaAcceptsTheListedNamesOnly) {
  EXPECT_EQ(parse_isa("scalar"), Isa::kScalar);
  EXPECT_EQ(parse_isa("native"), best_supported_isa());
  if (best_supported_isa() == Isa::kAvx2) {
    EXPECT_EQ(parse_isa("avx2"), Isa::kAvx2);
  } else {
    EXPECT_THROW(parse_isa("avx2"), ConfigError);
  }
  for (const char* bad : {"sse2", "AVX2", "", "avx512"}) {
    try {
      parse_isa(bad);
      ADD_FAILURE() << "parse_isa accepted '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("scalar|avx2|native"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------- scheduler differential

/// Builds a randomized candidate set as SoA lanes. Shapes stress the
/// matcher's sort paths: near-sorted scores, exact ties with ±0.0 (the
/// payload tiebreak and the radix sort's coarse-key runs), and a bimodal
/// threshold-style spread two clusters a class offset apart.
sched::CandidateSoA make_grid(Rng& rng, std::size_t n, sched::PortId ports,
                              int shape) {
  sched::CandidateSoA soa;
  soa.with_arrival = true;
  soa.resize_lanes(n);
  for (std::size_t k = 0; k < n; ++k) {
    soa.ingress[k] = static_cast<sched::PortId>(
        rng.uniform_int(0, ports - 1));
    soa.egress[k] = static_cast<sched::PortId>(rng.uniform_int(0, ports - 1));
    soa.backlog[k] = rng.bernoulli(0.5) ? rng.uniform(0.0, 2e3)
                                        : rng.uniform(0.0, 5e5);
    soa.flow_count[k] = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    soa.shortest_flow[k] = static_cast<queueing::FlowId>(k);  // distinct
    double sr = rng.uniform(0.0, 1e6);
    if (rng.bernoulli(0.1)) {
      sr = static_cast<double>(rng.uniform_int(0, 4)) * 1500.0;  // ties
    }
    if (rng.bernoulli(0.02)) {
      sr = rng.bernoulli(0.5) ? 0.0 : -0.0;
    }
    soa.shortest_remaining[k] = sr;
    soa.shortest_arrival[k] = rng.uniform(0.0, 10.0);
    soa.oldest_flow[k] = static_cast<queueing::FlowId>(k);
    soa.oldest_arrival[k] = rng.uniform(0.0, 10.0);
  }
  if (shape == 1) {
    // Near-sorted: ascending scores with a few adjacent swaps.
    std::sort(soa.shortest_remaining.begin(), soa.shortest_remaining.end());
    for (int p = 0; p < 3 && n > 8; ++p) {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform_int(1, n - 1));
      std::swap(soa.shortest_remaining[at], soa.shortest_remaining[at - 1]);
    }
  }
  return soa;
}

TEST(Dispatch, SchedulerDecisionsIdenticalAcrossIsas) {
  if (!compiled_with_simd() || best_supported_isa() == Isa::kScalar) {
    GTEST_SKIP() << "no vector ISA available";
  }
  IsaGuard guard;
  const sched::PortId ports = 24;
  const char* specs[] = {"srpt", "fast-basrpt:v=2500",
                         "threshold-srpt:threshold=2000", "maxweight",
                         "fifo"};
  Rng rng(21);
  for (const char* spec_text : specs) {
    auto scheduler =
        sched::make_scheduler(sched::SchedulerSpec::parse(spec_text));
    for (int shape = 0; shape < 2; ++shape) {
      for (const std::size_t n : {3ul, 200ul, 3000ul}) {
        const sched::CandidateSoA soa = make_grid(rng, n, ports, shape);
        const sched::CandidateView view = soa.view();
        set_active_isa(Isa::kScalar);
        const sched::Decision scalar = scheduler->decide(ports, view);
        set_active_isa(best_supported_isa());
        const sched::Decision native = scheduler->decide(ports, view);
        EXPECT_EQ(scalar.selected, native.selected)
            << spec_text << " shape=" << shape << " n=" << n;
      }
    }
  }
}

TEST(Dispatch, DecideBatchMatchesLoopedDecideIntoAcrossIsas) {
  IsaGuard guard;
  const sched::PortId ports = 16;
  auto scheduler = sched::make_scheduler(sched::SchedulerSpec::srpt());
  Rng rng(22);
  std::vector<sched::CandidateSoA> soas;
  std::vector<sched::CandidateView> views;
  for (int b = 0; b < 5; ++b) {
    soas.push_back(make_grid(rng, 150 + 37 * b, ports, b % 2));
  }
  for (const auto& soa : soas) {
    views.push_back(soa.view());
  }
  std::vector<sched::Decision> batch(views.size());
  scheduler->decide_batch(ports, views.data(), views.size(), batch.data());
  for (std::size_t k = 0; k < views.size(); ++k) {
    EXPECT_EQ(batch[k].selected, scheduler->decide(ports, views[k]).selected);
  }
}

}  // namespace
}  // namespace basrpt::simd
