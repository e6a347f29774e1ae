// Serialized-report pins for the strategies' slack predictions. The golden
// grid and RackPins run every strategy with the enhanced predictor on, so
// first-iteration profiling reaches no byte pin there. These runs cover it:
// every single-node strategy, BSR at r = 0 and r = 0.25, and BSR at r = 0.25
// with the first-iteration predictor (bsr_use_enhanced_predictor = false),
// each without variability or faults, under the `drift` preset, and under
// Poisson faults at x225; plus first-iteration BSR on the cluster engine, on
// a flat 4-device paper_cluster and a 16-device rack_8x8 tree. A prediction
// read with the other formula, or from a history one iteration behind,
// changes a hash here.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "bsr/bsr.hpp"
#include "serve/report_json.hpp"

namespace bsr {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct Case {
  std::string name;
  RunConfig config;
};

struct Pin {
  std::size_t bytes;
  std::uint64_t hash;
};

/// BSR at r = 0.25 reading the first-iteration predictor.
RunConfig first_iteration_bsr(RunConfig cfg) {
  cfg.strategy = "bsr";
  cfg.reclamation_ratio = 0.25;
  cfg.bsr_use_enhanced_predictor = false;
  return cfg;
}

/// The runs, in the order of kPins. "first" names BSR at r = 0.25 reading
/// the first-iteration predictor, the only BSR the cluster cases run.
std::vector<Case> cases() {
  struct Strategy {
    const char* name;
    const char* key;
    double r;
    bool enhanced;
  };
  const Strategy strategies[] = {
      {"original", "original", 0.0, true},
      {"r2h", "r2h", 0.0, true},
      {"sr", "sr", 0.0, true},
      {"bsr r=0", "bsr", 0.0, true},
      {"bsr r=0.25", "bsr", 0.25, true},
      {"bsr r=0.25 first", "bsr", 0.25, false},
  };
  const char* const environments[] = {"deterministic", "drift", "faults"};
  const Factorization facts[] = {Factorization::Cholesky, Factorization::LU,
                                 Factorization::QR};
  std::vector<Case> out;
  for (const Factorization f : facts) {
    for (const char* env : environments) {
      for (const Strategy& s : strategies) {
        RunConfig cfg;
        cfg.factorization = f;
        cfg.n = 4096;
        cfg.strategy = s.key;
        cfg.reclamation_ratio = s.r;
        cfg.bsr_use_enhanced_predictor = s.enhanced;
        if (std::string(env) == "drift") {
          cfg.variability = make_variability("drift");
        } else if (std::string(env) == "faults") {
          cfg.faults = make_faults("poisson");
          cfg.faults.rate_multiplier = 225.0;
        }
        out.push_back({std::string(predict::to_string(f)) + " " + env + " " +
                           s.name,
                       cfg});
      }
    }
    RunConfig flat;
    flat.factorization = f;
    flat.n = 4096;
    flat.cluster = "paper_cluster";
    flat.devices = 4;
    out.push_back({std::string(predict::to_string(f)) +
                       " paper_cluster 4 bsr first",
                   first_iteration_bsr(flat)});
    RunConfig rack = flat;
    rack.cluster = "rack_8x8";
    rack.devices = 16;
    rack.collective = "tree";
    out.push_back({std::string(predict::to_string(f)) +
                       " rack_8x8 16 tree bsr first",
                   first_iteration_bsr(rack)});
  }
  return out;
}

/// Recorded before the strategies read their predictions from the engine's
/// history instead of predictors of their own.
constexpr Pin kPins[] = {
    {35066u, 0x74450b6e8f39b7e6ull},  // Cholesky deterministic original
    {35322u, 0x66b5518c8e8da64eull},  // Cholesky deterministic r2h
    {35428u, 0x89dfac0c13d46f39ull},  // Cholesky deterministic sr
    {35896u, 0xea3c6c3a2253557bull},  // Cholesky deterministic bsr r=0
    {36305u, 0x3dfecc436e91c7c9ull},  // Cholesky deterministic bsr r=0.25
    {36306u, 0x3acbe2578a60717bull},  // Cholesky deterministic bsr r=0.25 first
    {35072u, 0xbf9ffe734d110a08ull},  // Cholesky drift original
    {35320u, 0xd92025bb175c1c8eull},  // Cholesky drift r2h
    {35508u, 0x53f74d2c4f9a97eaull},  // Cholesky drift sr
    {35988u, 0x9fa5fa396c3a2a7eull},  // Cholesky drift bsr r=0
    {36264u, 0x52c58906cbd9f442ull},  // Cholesky drift bsr r=0.25
    {36264u, 0x52c58906cbd9f442ull},  // Cholesky drift bsr r=0.25 first
    {35171u, 0x3fcac5261d8d533dull},  // Cholesky faults original
    {35427u, 0x1994a555e86380ddull},  // Cholesky faults r2h
    {35533u, 0xb61f30f947f5e546ull},  // Cholesky faults sr
    {36001u, 0x716002493f044ffaull},  // Cholesky faults bsr r=0
    {36410u, 0x7d4b13dbfed32abaull},  // Cholesky faults bsr r=0.25
    {36411u, 0xf4de172705601a9eull},  // Cholesky faults bsr r=0.25 first
    {3097u, 0x287afd948fa18608ull},  // Cholesky paper_cluster 4 bsr first
    {7872u, 0x5598cda1192faa31ull},  // Cholesky rack_8x8 16 tree bsr first
    {35868u, 0x85907e260bd28ea2ull},  // LU deterministic original
    {36138u, 0xe008b0bf2d936aacull},  // LU deterministic r2h
    {36287u, 0xf06bf09ee545e39bull},  // LU deterministic sr
    {36688u, 0x10e8c1e6847b1ae9ull},  // LU deterministic bsr r=0
    {37014u, 0xd1f876c23b31befdull},  // LU deterministic bsr r=0.25
    {37011u, 0xf6ec64b46295815bull},  // LU deterministic bsr r=0.25 first
    {35982u, 0xf077868a5c6b656cull},  // LU drift original
    {36206u, 0x1d1ea435624a2e0bull},  // LU drift r2h
    {36403u, 0x2002acf021c984cdull},  // LU drift sr
    {36674u, 0x4ef6730cb04e07bdull},  // LU drift bsr r=0
    {36985u, 0xb6c9c4e181133552ull},  // LU drift bsr r=0.25
    {36985u, 0xb6c9c4e181133552ull},  // LU drift bsr r=0.25 first
    {35973u, 0x63eac178c884fe13ull},  // LU faults original
    {36243u, 0xe122dd3ab792bd51ull},  // LU faults r2h
    {36392u, 0x154506aa60b48084ull},  // LU faults sr
    {36793u, 0x089c7dd889715506ull},  // LU faults bsr r=0
    {37142u, 0x344cac9515b731d9ull},  // LU faults bsr r=0.25
    {37139u, 0xeb57c68c882aeee7ull},  // LU faults bsr r=0.25 first
    {3118u, 0x92a22a96f811dd82ull},  // LU paper_cluster 4 bsr first
    {7915u, 0x6feeee9f1ea14472ull},  // LU rack_8x8 16 tree bsr first
    {35925u, 0x30382281596763c4ull},  // QR deterministic original
    {36118u, 0x3717026b37eca0b2ull},  // QR deterministic r2h
    {36343u, 0x39714222ea293be6ull},  // QR deterministic sr
    {36743u, 0x5bd550d7f01e80ceull},  // QR deterministic bsr r=0
    {37068u, 0x6dbde0327baae932ull},  // QR deterministic bsr r=0.25
    {37064u, 0x920eac1c85009671ull},  // QR deterministic bsr r=0.25 first
    {35881u, 0xac00c412a091d9edull},  // QR drift original
    {36162u, 0x3c2cbfc573e9e5ccull},  // QR drift r2h
    {36405u, 0x01fdfdc963a75d8aull},  // QR drift sr
    {36730u, 0x94acb1f4391f9085ull},  // QR drift bsr r=0
    {37023u, 0x8205cd4a1b588092ull},  // QR drift bsr r=0.25
    {37017u, 0x7f5db6906b391958ull},  // QR drift bsr r=0.25 first
    {36030u, 0x924d841269abba9bull},  // QR faults original
    {36223u, 0x06fbae3bc5dcf997ull},  // QR faults r2h
    {36448u, 0x1dae3b2ce6158ba5ull},  // QR faults sr
    {36848u, 0x84e7adf94ae41f27ull},  // QR faults bsr r=0
    {37213u, 0x226f34fde4fd09fdull},  // QR faults bsr r=0.25
    {37207u, 0x27de3a8ede4663d9ull},  // QR faults bsr r=0.25 first
    {3141u, 0x417e0ddd20f36943ull},  // QR paper_cluster 4 bsr first
    {7882u, 0x21988416715f4feaull},  // QR rack_8x8 16 tree bsr first
};

TEST(StrategyPins, SerializedBytesMatchThePinnedRuns) {
  const std::vector<Case> runs = cases();
  ASSERT_EQ(runs.size(), std::size(kPins));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const std::string bytes = serve::serialize_report(run(runs[i].config));
    EXPECT_EQ(bytes.size(), kPins[i].bytes) << runs[i].name;
    EXPECT_EQ(fnv1a(bytes), kPins[i].hash) << runs[i].name;
  }
}

}  // namespace
}  // namespace bsr
