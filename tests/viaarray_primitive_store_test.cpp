// Adversarial and end-to-end tests of the FEA stress-primitive store
// (viaarray/primitive_store.h):
//   - every on-disk failure mode (missing file, wrong format version,
//     corrupt payloads, truncated entries) degrades to a cache MISS, never
//     an exception, and the next save rewrites the file clean;
//   - a characterization with a warm store runs ZERO FEA solves and is
//     bit-identical to the cold run at 1, 4, and 8 worker threads;
//   - concurrent readers racing a writer (the TSan target of this file)
//     each observe either a complete old file or a complete new one.
#include "viaarray/primitive_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "obs/obs.h"
#include "viaarray/characterize.h"

namespace viaduct {
namespace {

class PrimitiveStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("viaduct_primitive_store_test_" + std::to_string(::getpid()) +
              "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".tbl"))
                .string();
    std::filesystem::remove(path_);
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    fault::Registry::instance().disarmAll();
    fault::Registry::instance().setSeed(0);
  }

  void writeFile(const std::string& text) {
    std::ofstream os(path_, std::ios::trunc);
    os << text;
  }

  std::string path_;
};

std::vector<double> sampleSigma(int vias = 9) {
  std::vector<double> sigma;
  for (int v = 0; v < vias; ++v) sigma.push_back(2.4e8 + 1.25e6 * v);
  return sigma;
}

TEST_F(PrimitiveStoreTest, MissOnAbsentFileAndUnknownKey) {
  StressPrimitiveStore store(path_);
  EXPECT_FALSE(store.load("k").has_value());
  EXPECT_EQ(store.entryCount(), 0u);
  store.save("k", sampleSigma());
  EXPECT_FALSE(store.load("other").has_value());
}

TEST_F(PrimitiveStoreTest, RoundTripIsExact) {
  StressPrimitiveStore store(path_);
  const auto sigma = sampleSigma();
  store.save("k", sigma);
  const auto loaded = store.load("k");
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), sigma.size());
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    // Bit-exact, not approximately equal: warm characterizations must be
    // indistinguishable from cold ones.
    EXPECT_EQ((*loaded)[i], sigma[i]);
  }
}

TEST_F(PrimitiveStoreTest, ReplacesAndKeepsOtherEntries) {
  StressPrimitiveStore store(path_);
  store.save("a", sampleSigma(4));
  store.save("b", sampleSigma(16));
  store.save("a", sampleSigma(9));
  EXPECT_EQ(store.entryCount(), 2u);
  EXPECT_EQ(store.load("a")->size(), 9u);
  EXPECT_EQ(store.load("b")->size(), 16u);
}

TEST_F(PrimitiveStoreTest, FormatVersionMismatchIsAMiss) {
  // A file written under a different (future or past) format version must
  // load as a miss wholesale — the reader only understands its own version.
  writeFile("viaduct-stress-primitives v0\nentry k\nsigma 1 2 3\n");
  StressPrimitiveStore store(path_);
  EXPECT_FALSE(store.load("k").has_value());
  EXPECT_EQ(store.entryCount(), 0u);
  // The next save rewrites the file under the current version.
  store.save("k", sampleSigma(3));
  EXPECT_EQ(store.load("k")->size(), 3u);
  std::ifstream is(path_);
  std::string magic;
  std::getline(is, magic);
  EXPECT_EQ(magic, "viaduct-stress-primitives v1");
}

TEST_F(PrimitiveStoreTest, CorruptPayloadsAreMissesNeverThrows) {
  const char* corruptions[] = {
      "",                                                  // empty file
      "garbage\n",                                         // no magic
      "viaduct-stress-primitives v1\nwhat is this\n",      // unknown directive
      "viaduct-stress-primitives v1\nentry k\n",           // entry, no sigma
      "viaduct-stress-primitives v1\nsigma 1 2\n",         // sigma, no entry
      "viaduct-stress-primitives v1\nentry k\nsigma 1 x\n",    // bad token
      "viaduct-stress-primitives v1\nentry k\nsigma nan\n",    // NaN refused
      "viaduct-stress-primitives v1\nentry k\nsigma 1e999999\n",  // overflow
      "viaduct-stress-primitives v1\nentry k\nsigma \n",       // empty vector
  };
  for (const char* text : corruptions) {
    writeFile(text);
    StressPrimitiveStore store(path_);
    EXPECT_NO_THROW({ EXPECT_FALSE(store.load("k").has_value()); }) << text;
  }
}

TEST_F(PrimitiveStoreTest, SaveRewritesACorruptFileClean) {
  writeFile("viaduct-stress-primitives v1\nentry k\nsigma 1 trailing-junk\n");
  StressPrimitiveStore store(path_);
  EXPECT_FALSE(store.load("k").has_value());
  store.save("k2", sampleSigma(5));
  EXPECT_EQ(store.entryCount(), 1u);  // the corrupt entry is gone
  EXPECT_EQ(store.load("k2")->size(), 5u);
}

TEST_F(PrimitiveStoreTest, ConcurrentReadersSeeOnlyCompleteFiles) {
  // One writer alternates two entries through the atomic temp+rename path
  // while readers hammer load(): every successful load must be one of the
  // two complete vectors, never a torn or partial one. This test carries
  // the tsan label via its target.
  StressPrimitiveStore store(path_);
  const auto sigmaA = sampleSigma(4);
  const auto sigmaB = sampleSigma(16);
  store.save("hot", sigmaA);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      StressPrimitiveStore own(path_);  // readers open the path fresh
      while (!stop.load(std::memory_order_relaxed)) {
        const auto got = own.load("hot");
        if (!got) continue;  // mid-rename miss is acceptable; torn is not
        if (got->size() != sigmaA.size() && got->size() != sigmaB.size())
          torn.fetch_add(1);
      }
    });
  }
  for (int i = 0; i < 25; ++i) store.save("hot", i % 2 == 0 ? sigmaB : sigmaA);
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
  const auto final = store.load("hot");
  ASSERT_TRUE(final.has_value());
  EXPECT_EQ(final->size(), sigmaB.size());  // last save (i=24, even) wrote B
}

// ---------------------------------------------------------------------------
// End-to-end: the characterizer consults the store before running FEA.

ViaArrayCharacterizationSpec smallSpec(int threads) {
  ViaArrayCharacterizationSpec spec;
  spec.array.n = 2;
  spec.resolutionXy = 0.25e-6;
  spec.trials = 8;
  spec.parallelism.threads = threads;
  return spec;
}

TEST_F(PrimitiveStoreTest, WarmRunSkipsFeaAndIsBitIdenticalAcrossThreads) {
  auto store = std::make_shared<StressPrimitiveStore>(path_);

  // Cold run at 1 thread: exactly one FEA solve, primitive persisted.
  auto cold = smallSpec(1);
  cold.primitiveStore = store;
  const std::int64_t solvesBefore =
      static_cast<std::int64_t>(
      obs::Registry::instance().counter("viaarray.fea_solves").value());
  ViaArrayCharacterizer coldChar(cold);
  EXPECT_EQ(static_cast<std::int64_t>(
      obs::Registry::instance().counter("viaarray.fea_solves").value()),
            solvesBefore + 1);
  EXPECT_EQ(store->entryCount(), 1u);

  // Warm runs at 1, 4, and 8 threads: zero additional FEA solves, raw
  // stress bit-identical to the cold run's.
  for (int threads : {1, 4, 8}) {
    auto warm = smallSpec(threads);
    warm.primitiveStore = store;
    ViaArrayCharacterizer warmChar(warm);
    EXPECT_EQ(static_cast<std::int64_t>(
      obs::Registry::instance().counter("viaarray.fea_solves").value()),
              solvesBefore + 1)
        << "threads=" << threads;
    ASSERT_EQ(warmChar.rawSigmaT().size(), coldChar.rawSigmaT().size());
    for (std::size_t i = 0; i < coldChar.rawSigmaT().size(); ++i) {
      EXPECT_EQ(warmChar.rawSigmaT()[i], coldChar.rawSigmaT()[i])
          << "threads=" << threads << " via=" << i;
    }
  }
}

TEST_F(PrimitiveStoreTest, ShapeMismatchedEntryIsRecomputedAndRewritten) {
  auto store = std::make_shared<StressPrimitiveStore>(path_);
  auto spec = smallSpec(1);
  spec.primitiveStore = store;
  // Poison the store with a wrong-shape vector under the exact key the
  // characterizer will ask for: silent corruption that survives parsing.
  store->save(spec.primitiveKey(), sampleSigma(2));  // 2x2 array has 4 vias
  const std::int64_t solvesBefore =
      static_cast<std::int64_t>(
      obs::Registry::instance().counter("viaarray.fea_solves").value());
  ViaArrayCharacterizer ch(spec);  // must not throw
  EXPECT_EQ(static_cast<std::int64_t>(
      obs::Registry::instance().counter("viaarray.fea_solves").value()),
            solvesBefore + 1);
  EXPECT_EQ(ch.rawSigmaT().size(), 4u);
  // The poisoned entry was rewritten with the recomputed primitive.
  const auto healed = store->load(spec.primitiveKey());
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->size(), 4u);
}

TEST_F(PrimitiveStoreTest, InjectedTruncationDegradesToRecompute) {
  // fault site primitive_store.load: a stored vector loses its last element
  // after parsing — the characterizer's shape validation must degrade it to
  // a recompute, not an error.
  auto store = std::make_shared<StressPrimitiveStore>(path_);
  auto spec = smallSpec(1);
  spec.primitiveStore = store;
  ViaArrayCharacterizer cold(spec);  // populates the store
  fault::Registry::instance().arm("primitive_store.load",
                                  {.probability = 1.0});
  ViaArrayCharacterizer warm(spec);  // hit is truncated -> recompute
  fault::Registry::instance().disarmAll();
  ASSERT_EQ(warm.rawSigmaT().size(), cold.rawSigmaT().size());
  for (std::size_t i = 0; i < cold.rawSigmaT().size(); ++i)
    EXPECT_EQ(warm.rawSigmaT()[i], cold.rawSigmaT()[i]);
}

TEST_F(PrimitiveStoreTest, PrimitiveKeySeparatesSolverButNotEmModel) {
  auto a = smallSpec(1);
  auto b = smallSpec(1);
  // EM / Monte Carlo parameters do not touch the FEA primitive...
  b.em.temperatureK += 25.0;
  b.trials = 100;
  b.seed = 999;
  EXPECT_EQ(a.primitiveKey(), b.primitiveKey());
  EXPECT_NE(a.cacheKey(), b.cacheKey());
  // ...but the geometry does.
  b.resolutionXy *= 0.5;
  EXPECT_NE(a.primitiveKey(), b.primitiveKey());
}

TEST_F(PrimitiveStoreTest, DefaultKeysMatchTheirPersistedForm) {
  // Byte-for-byte the keys that existing characterization caches and
  // primitive stores were written under: any change orphans them all.
  const ViaArrayCharacterizationSpec spec;
  EXPECT_EQ(spec.cacheKey(),
            "n=4;A=9.9999999999999998e-13;sp=0;pat=Plus;"
            "w=1.9999999999999999e-06;m=1.5e-06;res=1.2499999999999999e-07;"
            "j=10000000000;Rarr=0.40000000000000002;sheet=0.02;"
            "Ea=0.84999999999999998;D0=2.7000000000000002e-09;"
            "sD=0.29999999999999999;rho=2.9999999999999997e-08;"
            "B=28000000000;gam=1.7;Rf=1e-08;sRf=0.050000000000000003;"
            "T=378.14999999999998;pkg=0;cal=0.80000000000000004,0;tr=500;"
            "seed=12345;stk=2.9999999999999999e-07,2.4999999999999999e-07,"
            "2.9999999999999999e-07;rng=ctr1;key=p17;solve=inc1;rtol=1e-10;"
            "fea=mg");
  EXPECT_EQ(spec.primitiveKey(),
            "n=4;A=9.9999999999999998e-13;sp=0;pat=Plus;"
            "w=1.9999999999999999e-06;m=1.5e-06;res=1.2499999999999999e-07;"
            "stk=2.9999999999999999e-07,2.4999999999999999e-07,"
            "2.9999999999999999e-07;fea=mg;Ta=350;Top=105;"
            "tol=9.9999999999999995e-08;key=p17v1");
}

TEST_F(PrimitiveStoreTest, RetriedFeaSolveIsNotPersisted) {
  // The first FEA CG attempt stalls; the policy retry converges under a
  // tightened tolerance. The characterization succeeds, but its stress
  // differs from a clean cold solve's, so the store must stay empty.
  auto store = std::make_shared<StressPrimitiveStore>(path_);
  auto spec = smallSpec(1);
  spec.primitiveStore = store;
  fault::Registry::instance().arm("cg.nonconverge", {.nth = 1});
  const std::int64_t retriesBefore = static_cast<std::int64_t>(
      obs::Registry::instance().counter("fault.policy.fea_retries").value());
  ViaArrayCharacterizer ch(spec);
  fault::Registry::instance().disarmAll();
  EXPECT_EQ(static_cast<std::int64_t>(obs::Registry::instance()
                                          .counter("fault.policy.fea_retries")
                                          .value()) -
                retriesBefore,
            1);
  EXPECT_EQ(ch.rawSigmaT().size(), 4u);
  EXPECT_FALSE(store->load(spec.primitiveKey()).has_value());
  EXPECT_EQ(store->entryCount(), 0u);
}

}  // namespace
}  // namespace viaduct
