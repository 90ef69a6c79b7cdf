// Unit and integration tests for the tree-to-native JIT backend
// (src/jit/): the executable CodeBuffer's W^X life cycle, the x86-64
// emitter's pool-first constant references and per-tree label
// resolution (asserted by executing a hand-emitted kernel), the
// compile's peak memory against the code it emits, the three-state
// compile policy and its profitability heuristic, fallback-to-arena
// behaviour, and — for the TSan job — concurrent first-get() compiles
// through the registry.
//
// Everything here is a no-op-but-green on targets where the JIT is
// compiled out (-DHMD_NO_JIT / non-x86-64): the availability-dependent
// assertions are gated on jit::available(), and the behavioural ones
// (fallback, policy bookkeeping, concurrency) hold either way.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/detector_registry.h"
#include "api/score.h"
#include "common/binary_io.h"
#include "common/failpoint.h"
#include "core/flat_forest.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "jit/code_buffer.h"
#include "jit/jit.h"
#include "jit/x64_emitter.h"
#include "test_support.h"

namespace {

using namespace hmd;

struct PolicyGuard {
  jit::Policy saved = jit::policy();
  ~PolicyGuard() { jit::set_policy(saved); }
};

/// "m<k>" built without operator+(const char*, string&&) — GCC 12's
/// -Wrestrict false-positives on that overload when it inlines into the
/// thread lambdas below, and CI compiles with -Werror.
std::string model_key(int k) {
  std::string key = "m";
  key += std::to_string(k);
  return key;
}

core::HmdConfig rf_config(int members) {
  core::HmdConfig config;
  config.model = core::ModelKind::kRandomForest;
  config.n_members = members;
  config.seed = 42;
  return config;
}

/// HPC rows enough for a deep RF M=100 of ~62k nodes: past kAuto's size
/// cap, under the generator's.
const data::DatasetBundle& hpc_2000() {
  static const data::DatasetBundle bundle = [] {
    data::HpcDatasetConfig config;
    config.seed = 13;
    config.n_train = 2000;
    config.n_test = 10;
    config.n_unknown = 10;
    return data::build_hpc_dataset(config);
  }();
  return bundle;
}

#if HMD_JIT_SUPPORTED

TEST(JitCodeBuffer, EmitProtectExecute) {
  jit::CodeBuffer code;
  code.put8(0xC3);  // ret
  ASSERT_TRUE(code.ok());
  ASSERT_TRUE(code.protect());
  const auto fn = reinterpret_cast<void (*)()>(
      const_cast<void*>(code.entry(0)));
  fn();  // returning at all is the assertion
}

TEST(JitCodeBuffer, GrowsPastInitialMappingAndStaysExecutable) {
  // Force several growths (initial capacity is 64 KiB; each one moves the
  // mapping, by mremap on Linux), then prove the surviving bytes still
  // execute end to end.
  jit::CodeBuffer code;
  constexpr std::size_t kNops = 300 * 1000;
  for (std::size_t i = 0; i < kNops; ++i) code.put8(0x90);  // nop sled
  code.put8(0xC3);                                          // ret
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.size(), kNops + 1);
  ASSERT_TRUE(code.protect());
  const auto fn = reinterpret_cast<void (*)()>(
      const_cast<void*>(code.entry(0)));
  fn();
}

TEST(JitCodeBuffer, PatchRewritesEmittedBytes) {
  // mov eax, imm32; ret — with the immediate patched after emission, the
  // way resolve_labels() patches a rel32.
  jit::CodeBuffer code;
  code.put8(0xB8);
  const std::size_t at = code.size();
  code.put32(0);
  code.put8(0xC3);
  code.patch32(at, 0x1234ABCD);
  ASSERT_TRUE(code.ok());
  ASSERT_TRUE(code.protect());
  const auto fn = reinterpret_cast<std::uint32_t (*)()>(
      const_cast<void*>(code.entry(0)));
  EXPECT_EQ(fn(), 0x1234ABCDu);
}

TEST(JitCodeBuffer, MoveTransfersOwnership) {
  jit::CodeBuffer a;
  a.put8(0xC3);
  jit::CodeBuffer b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  ASSERT_TRUE(b.protect());
  reinterpret_cast<void (*)()>(const_cast<void*>(b.entry(0)))();
}

TEST(JitEmitter, PoolInternsByBitPattern) {
  jit::CodeBuffer code;
  jit::X64Emitter emitter(code);
  const std::size_t a = emitter.pool_const(1.5);
  const std::size_t b = emitter.pool_const(1.5);
  const std::size_t c = emitter.pool_const(2.5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // +0.0 and -0.0 are different bit patterns and must not collapse (a
  // blended leaf payload of -0.0 vs +0.0 would select the wrong bits).
  EXPECT_NE(emitter.pool_const(0.0), emitter.pool_const(-0.0));
}

TEST(JitEmitter, HandEmittedRowLoopExecutes) {
  // The forest kernels' scaffolding in miniature: a row loop over r9
  // accumulating a pooled constant into votes[r9]. The pool is laid out
  // first, so the kernel's entry follows it and its RIP-relative
  // displacement is negative. Executing it proves label binding, rel32
  // patching, backward pool references, and the SIB-indexed load/store
  // encodings in one go.
  jit::CodeBuffer code;
  jit::X64Emitter emitter(code);
  emitter.pool_const(-1.0);  // slot 0: the used slot is not the pool base
  const std::uint32_t slot = emitter.pool_const(2.5);
  emitter.end_pool();
  const std::size_t entry_offset = emitter.offset();
  EXPECT_EQ(entry_offset, 16u);
  emitter.zero_r9();
  const jit::X64Emitter::Label loop = emitter.make_label();
  const jit::X64Emitter::Label done = emitter.make_label();
  emitter.bind(loop);
  emitter.cmp_r9_rsi();
  emitter.jae(done);
  emitter.movsd_load_const(0, slot);
  emitter.movsd_load_indexed(1, jit::kRdx, 0);
  emitter.addsd(1, 0);
  emitter.movsd_store_indexed(1, jit::kRdx, 0);
  emitter.inc_r9();
  emitter.jmp(loop);
  emitter.bind(done);
  emitter.ret();
  ASSERT_TRUE(emitter.resolve_labels());
  ASSERT_TRUE(code.protect());

  using KernelFn = void (*)(const double*, std::size_t, double*, double*,
                            double*);
  const auto fn = reinterpret_cast<KernelFn>(
      const_cast<void*>(code.entry(entry_offset)));
  std::vector<double> votes = {1.0, 0.0, -2.5, 10.0};
  fn(nullptr, votes.size(), votes.data(), nullptr, nullptr);
  EXPECT_EQ(votes, (std::vector<double>{3.5, 2.5, 0.0, 12.5}));
}

TEST(JitEmitter, UnboundLabelFailsResolution) {
  // A jump to a label that is never bound must fail the tree's
  // resolution and poison the buffer, so the dangling rel32 can never be
  // sealed executable.
  jit::CodeBuffer code;
  jit::X64Emitter emitter(code);
  emitter.end_pool();
  const jit::X64Emitter::Label bound = emitter.make_label();
  const jit::X64Emitter::Label dangling = emitter.make_label();
  emitter.bind(bound);
  emitter.jmp(bound);
  emitter.jb(dangling);
  emitter.ret();
  EXPECT_FALSE(emitter.resolve_labels());
  EXPECT_FALSE(code.ok());
  EXPECT_FALSE(code.protect());
}

/// VmHWM and VmRSS of this process in kB, or nullopt when
/// /proc/self/status cannot be read.
std::optional<std::pair<long, long>> hwm_and_rss_kb() {
  std::ifstream status("/proc/self/status");
  long hwm = -1, rss = -1;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) hwm = std::stol(line.substr(6));
    if (line.rfind("VmRSS:", 0) == 0) rss = std::stol(line.substr(6));
  }
  if (hwm < 0 || rss < 0) return std::nullopt;
  return std::make_pair(hwm, rss);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

TEST(JitMemory, CompilePeakTracksCodeSize) {
  // The compile's transient memory must track the code it emits: the
  // pool is written in place, branch labels are resolved per tree, and
  // growth moves the mapping instead of copying it. A forest-wide fixup
  // table or a copy per doubling shows up as a peak of ~3x the code.
  if (kSanitized) GTEST_SKIP() << "sanitizer shadow memory skews RSS";
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);  // no background compile to race
  core::TrustedHmd hmd(rf_config(100));
  hmd.fit(hpc_2000().train);
  const auto before = hwm_and_rss_kb();
  if (!before) GTEST_SKIP() << "/proc/self/status unreadable";
  const auto program = jit::compile_forest(hmd.flat_forest());
  const auto after = hwm_and_rss_kb();
  ASSERT_NE(program, nullptr);
  ASSERT_TRUE(after.has_value());
  const long base_kb = std::max(before->first, before->second);
  const double rise_bytes =
      static_cast<double>(std::max(0L, after->first - base_kb)) * 1024.0;
  const double code_bytes = static_cast<double>(program->code_bytes());
  EXPECT_LE(rise_bytes, 1.6 * code_bytes)
      << "peak rose " << rise_bytes / 1e6 << " MB for " << code_bytes / 1e6
      << " MB of code";
}

#endif  // HMD_JIT_SUPPORTED

TEST(JitPolicy, AvailableMatchesBuild) {
  EXPECT_EQ(jit::available(), HMD_JIT_SUPPORTED != 0);
}

TEST(JitPolicy, SetAndQueryRoundTrips) {
  const PolicyGuard guard;
  for (const auto p :
       {jit::Policy::kOn, jit::Policy::kOff, jit::Policy::kAuto}) {
    jit::set_policy(p);
    EXPECT_EQ(jit::policy(), p);
  }
}

TEST(JitPolicy, AutoDeclinesStumpForestsAndTakesDeepOnes) {
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kAuto);
  core::TrustedHmd stumpy(rf_config(100));
  stumpy.fit(test::small_dvfs().train);  // well-separated: mostly stumps
  core::TrustedHmd deep(rf_config(100));
  deep.fit(test::small_hpc().train);  // overlapping classes: deep trees
  // Deep and large (~62k nodes, well past kAuto's 2^14-node cap): the
  // interleaved arena walk beats native code here.
  core::TrustedHmd large(rf_config(100));
  large.fit(hpc_2000().train);
  EXPECT_GT(large.flat_forest().n_nodes(), std::size_t{1} << 15);
  EXPECT_EQ(large.flat_forest().n_stumps(), 0u);
  EXPECT_FALSE(jit::should_compile(stumpy.flat_forest()));
  EXPECT_FALSE(jit::should_compile(large.flat_forest()));
  stumpy.flat_forest().wait_for_jit();
  deep.flat_forest().wait_for_jit();
  large.flat_forest().wait_for_jit();
  EXPECT_EQ(stumpy.flat_forest().jit_code_bytes(), 0u);
  EXPECT_EQ(large.engine().kernel_backend(), "stream-fallback");
  EXPECT_EQ(large.flat_forest().jit_code_bytes(), 0u);
  if (jit::available()) {
    EXPECT_TRUE(jit::should_compile(deep.flat_forest()));
    EXPECT_EQ(deep.engine().kernel_backend(), "jit");
  }
  // Off/on override the heuristic in both directions (on only where the
  // backend exists at all).
  jit::set_policy(jit::Policy::kOff);
  EXPECT_FALSE(jit::should_compile(deep.flat_forest()));
  jit::set_policy(jit::Policy::kOn);
  EXPECT_EQ(jit::should_compile(stumpy.flat_forest()), jit::available());
  EXPECT_EQ(jit::should_compile(large.flat_forest()), jit::available());
}

TEST(JitPolicy, GeneratorCapDeclinesUnderEveryPolicy) {
  // An arena past the generator's 2^18-node cap is never compiled, not
  // even under kOn: no job is queued, so no worker starts for a compile
  // that compile_forest would decline.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOn);
  const std::size_t slots = (std::size_t{1} << 18) + 1;
  std::stringstream blob;
  io::write_pod(blob, std::uint64_t{1});  // feature width
  io::write_vec(blob, std::vector<core::FlatForestEngine::Node>(slots));
  io::write_vec(blob, std::vector<double>(slots, 0.0));
  io::write_vec(blob, std::vector<std::int32_t>{0});
  const auto forest = core::FlatForestEngine::load_blob(blob, "capped");
  ASSERT_EQ(forest->n_nodes(), slots);
  for (const auto p :
       {jit::Policy::kOn, jit::Policy::kAuto, jit::Policy::kOff}) {
    jit::set_policy(p);
    EXPECT_FALSE(jit::should_compile(*forest));
  }
  forest->wait_for_jit();  // returns at once: no job was queued
  EXPECT_EQ(forest->kernel_backend(), "stream-fallback");
  EXPECT_EQ(forest->jit_code_bytes(), 0u);
}

TEST(JitPolicy, OffPinsTheInterpretedArena) {
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);
  core::TrustedHmd hmd(rf_config(20));
  hmd.fit(test::small_hpc().train);
  // A freshly-trained engine owns its arrays on the heap, so the
  // interpreted backend reports as the copied-bytes flavour — the point
  // here is only that kOff never produces native code.
  EXPECT_EQ(hmd.engine().kernel_backend(), "stream-fallback");
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), 0u);
  EXPECT_EQ(hmd.flat_forest().jit_compile_ms(), 0.0);
}

TEST(JitFallback, CompileForestHonoursAvailability) {
  core::TrustedHmd hmd(rf_config(10));
  hmd.fit(test::small_dvfs().train);
  const auto program = jit::compile_forest(hmd.flat_forest());
  if (jit::available()) {
    ASSERT_NE(program, nullptr);
    EXPECT_GT(program->code_bytes(), 0u);
    for (unsigned shape = 0; shape < 4; ++shape) {
      EXPECT_NE(program->kernel(shape), nullptr);
    }
  } else {
    EXPECT_EQ(program, nullptr);
  }
}

/// Scratch directory named after the running test and process (ctest -j
/// runs each case alone and inside JitSuite.All at the same time).
std::filesystem::path test_dir(const char* prefix) {
  std::string name = prefix;
  name += ::testing::UnitTest::GetInstance()->current_test_info()->name();
  name += '_';
  name += std::to_string(::getpid());
  const std::filesystem::path dir = name;
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(JitConcurrency, ConcurrentFirstGetCompilesRaceClean) {
  // Several threads hit first-get() on several keys at once with the JIT
  // forced on: each load queues its compile on the background worker and
  // serves the arena until the native kernels install. Every snapshot
  // must score bit-identically to an arena-loaded reference, whichever
  // backend served it — and TSan must stay silent (this suite is in the
  // TSan CI filter).
  const PolicyGuard guard;
  const auto& bundle = test::small_hpc();
  const std::filesystem::path dir = test_dir("jit_concurrency_tmp_");
  core::TrustedHmd trained(rf_config(20));
  trained.fit(bundle.train);
  constexpr int kKeys = 3;
  for (int k = 0; k < kKeys; ++k) {
    core::save_model(trained, (dir / (model_key(k) + ".hmdf")).string());
  }

  jit::set_policy(jit::Policy::kOff);
  const core::TrustedHmd reference =
      core::load_model((dir / "m0.hmdf").string(), /*n_threads=*/1);
  const auto expected = reference.estimate_batch(bundle.test.X);

  jit::set_policy(jit::Policy::kOn);
  api::DetectorRegistry registry(/*n_threads=*/1);
  for (int k = 0; k < kKeys; ++k) {
    registry.add(model_key(k), (dir / (model_key(k) + ".hmdf")).string());
  }
  constexpr int kThreads = 6;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < kKeys; ++k) {
          const auto hmd = registry.get(model_key(k % kKeys));
          const auto got = hmd->estimate_batch(bundle.test.X);
          for (std::size_t r = 0; r < got.size(); ++r) {
            if (got[r].votes_malware != expected[r].votes_malware ||
                got[r].soft_entropy != expected[r].soft_entropy ||
                got[r].score != expected[r].score) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  for (int k = 0; k < kKeys; ++k) {
    registry.get(model_key(k))->flat_forest().wait_for_jit();
    const auto health = registry.health(model_key(k));
    EXPECT_EQ(health.kernel_backend,
              jit::available() ? "jit" : "arena");
  }
  std::filesystem::remove_all(dir);
}

/// Stretches every background compile for one scope: each tree boundary
/// sleeps `ms` (the jit.tree failpoint), so a compile stays in flight long
/// enough to score across, cancel or evict.
struct SlowCompile {
  explicit SlowCompile(int ms) {
    fail::Spec spec;
    spec.action = fail::Spec::Action::kDelay;
    spec.delay_ms = ms;
    fail::arm("jit.tree", spec);
  }
  ~SlowCompile() { fail::disarm("jit.tree"); }
};

bool same_columns(const api::ScoreResult& a, const api::ScoreResult& b) {
  return a.rows == b.rows && a.prediction == b.prediction &&
         a.confidence == b.confidence && a.votes == b.votes &&
         a.vote_entropy == b.vote_entropy && a.soft_entropy == b.soft_entropy &&
         a.expected_entropy == b.expected_entropy &&
         a.mutual_information == b.mutual_information &&
         a.variation_ratio == b.variation_ratio &&
         a.max_probability == b.max_probability && a.score == b.score &&
         a.trusted == b.trusted;
}

/// score() of `x` under every estimate output, by the interpreted arena.
api::ScoreResult arena_oracle(const std::string& path, const Matrix& x) {
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);
  api::ScoreRequest request;
  request.x = &x;
  request.outputs = api::kEstimateOutputs;
  api::ScoreResult result;
  core::load_model(path, /*n_threads=*/1).score(request, result);
  return result;
}

std::int64_t ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(JitConcurrency, ThreadsScoreAcrossTheArenaToJitSwap) {
  // One engine, four threads scoring it from the moment it is loaded: the
  // early batches run on the arena, the native kernels install mid-stream
  // (one atomic store), the later batches run native. Every batch must be
  // bit-identical to the arena reference, whichever backend served it.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);  // only the served engine compiles
  const auto& x = test::small_hpc().test.X;
  const std::filesystem::path dir = test_dir("jit_swap_tmp_");
  const std::string path = (dir / "deep.hmdf").string();
  core::TrustedHmd trained(rf_config(20));
  trained.fit(test::small_hpc().train);
  core::save_model(trained, path);
  const api::ScoreResult expected = arena_oracle(path, x);

  const SlowCompile slow(2);  // ~80 tree boundaries: >= 160 ms in flight
  jit::set_policy(jit::Policy::kOn);
  const core::TrustedHmd served = core::load_model(path, /*n_threads=*/1);
  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0), arena_batches(kThreads, 0),
      jit_batches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        api::ScoreRequest request;
        request.x = &x;
        request.outputs = api::kEstimateOutputs;
        api::ScoreResult result;
        const auto t0 = std::chrono::steady_clock::now();
        // Past the swap by a few batches (or, without a JIT, a fixed
        // count); the time cap only bounds a broken build.
        while (jit_batches[t] < 3 && ms_since(t0) < 30000 &&
               (jit::available() || arena_batches[t] < 20)) {
          const bool native = served.engine().kernel_backend() == "jit";
          served.score(request, result);
          ++(native ? jit_batches[t] : arena_batches[t]);
          if (!same_columns(result, expected)) ++mismatches[t];
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    EXPECT_GT(arena_batches[t], 0) << "thread " << t;
    if (jit::available()) {
      EXPECT_GE(jit_batches[t], 3) << "thread " << t;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(JitConcurrency, EngineDestroyedWhileQueuedAndMidCompile) {
  // Engine a's compile is in flight (stretched to ~4 s), b's is queued
  // behind it. Destroying b drops its job without waiting for a;
  // destroying a stops its compile at the next tree boundary. Afterwards
  // the worker is idle (no tree boundary fires again) and still serves
  // new jobs.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);  // only a, b and c compile
  const std::filesystem::path dir = test_dir("jit_cancel_tmp_");
  const std::string path = (dir / "deep.hmdf").string();
  core::TrustedHmd trained(rf_config(20));
  trained.fit(test::small_hpc().train);
  core::save_model(trained, path);

  std::optional<core::TrustedHmd> a, b;
  {
    const SlowCompile slow(50);
    jit::set_policy(jit::Policy::kOn);
    a.emplace(core::load_model(path, /*n_threads=*/1));
    b.emplace(core::load_model(path, /*n_threads=*/1));
    if (jit::available()) {
      const auto t0 = std::chrono::steady_clock::now();
      while (fail::hit_count("jit.tree") == 0 && ms_since(t0) < 30000) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_GT(fail::hit_count("jit.tree"), 0) << "compile never started";
    }
    auto t0 = std::chrono::steady_clock::now();
    b.reset();  // queued: dropped, no wait for a's compile
    EXPECT_LT(ms_since(t0), 1000);
    t0 = std::chrono::steady_clock::now();
    a.reset();  // mid-compile: waits for one tree boundary at most
    EXPECT_LT(ms_since(t0), 1000);
    const int hits = fail::hit_count("jit.tree");
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_EQ(fail::hit_count("jit.tree"), hits) << "a compile kept running";
    // A 4-shape compile of 20 trees has 80 tree boundaries: a ran few of
    // them, b none.
    if (jit::available()) {
      EXPECT_LT(hits, 80);
    }
  }

  const core::TrustedHmd c = core::load_model(path, /*n_threads=*/1);
  c.flat_forest().wait_for_jit();
  EXPECT_EQ(c.engine().kernel_backend(), jit::available() ? "jit" : "arena");
  std::filesystem::remove_all(dir);
}

TEST(JitFallback, ThrowingCompileIsDeclined) {
  // A compile that throws on the worker (here a jit.tree error failpoint;
  // in the field, out of memory) is a decline: the wait returns, the
  // engine stays on the arena, and the worker survives for later jobs.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);
  const std::filesystem::path dir = test_dir("jit_decline_tmp_");
  const std::string path = (dir / "deep.hmdf").string();
  core::TrustedHmd trained(rf_config(20));
  trained.fit(test::small_hpc().train);
  core::save_model(trained, path);
  const api::ScoreResult expected = arena_oracle(path, test::small_hpc().test.X);

  jit::set_policy(jit::Policy::kOn);
  fail::Spec spec;
  spec.action = fail::Spec::Action::kError;
  fail::arm("jit.tree", spec);
  const core::TrustedHmd declined = core::load_model(path, /*n_threads=*/1);
  declined.flat_forest().wait_for_jit();
  fail::disarm("jit.tree");
  EXPECT_EQ(declined.engine().kernel_backend(), "arena");
  EXPECT_EQ(declined.flat_forest().jit_compile_ms(), 0.0);
  api::ScoreRequest request;
  request.x = &test::small_hpc().test.X;
  request.outputs = api::kEstimateOutputs;
  api::ScoreResult result;
  declined.score(request, result);
  EXPECT_TRUE(same_columns(result, expected));

  const core::TrustedHmd later = core::load_model(path, /*n_threads=*/1);
  later.flat_forest().wait_for_jit();
  EXPECT_EQ(later.engine().kernel_backend(),
            jit::available() ? "jit" : "arena");
  std::filesystem::remove_all(dir);
}

TEST(JitConcurrency, EvictionOfAJitPendingKeyDuringHotSwaps) {
  // The eviction x background compile x hot-swap drill. A residency
  // budget that holds one artifact serves two deep-forest keys, so every
  // key switch evicts the other key — usually while its compile is still
  // queued or in flight. Meanwhile the hot key is rename-published
  // between two versions and refresh() hot-swaps it. Every answer must
  // match the arena oracle of the version that served it.
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);  // only the registry's loads compile
  const auto& bundle = test::small_hpc();
  const Matrix& x = bundle.test.X;
  const std::filesystem::path dir = test_dir("jit_evict_tmp_");
  const std::string hot_path = (dir / "hot.hmdf").string();
  const std::string other_path = (dir / "other.hmdf").string();
  // Versions differ in ensemble size, so a snapshot names its version.
  core::HmdConfig other_config = rf_config(20);
  other_config.seed = 7;
  core::TrustedHmd v1(rf_config(20)), v2(rf_config(21)), other(other_config);
  v1.fit(bundle.train);
  v2.fit(bundle.train);
  other.fit(bundle.train);
  const std::string v2_path = (dir / "v2.artifact").string();
  core::save_model(v1, hot_path);
  core::save_model(v2, v2_path);
  core::save_model(other, other_path);
  const api::ScoreResult expect_v1 = arena_oracle(hot_path, x);
  const api::ScoreResult expect_v2 = arena_oracle(v2_path, x);
  const api::ScoreResult expect_other = arena_oracle(other_path, x);

  std::size_t one = 0;
  for (const std::string& path : {hot_path, v2_path, other_path}) {
    api::DetectorRegistry unbounded(1);
    unbounded.add("key", path);
    one = std::max(one, unbounded.get("key")->engine().memory_bytes());
  }
  fleet::FleetOptions options;
  options.residency_budget_bytes = one + one / 2;  // one key fits
  api::DetectorRegistry registry(1, core::LoadMode::kAuto, options);
  registry.add("hot", hot_path);
  registry.add("other", other_path);

  const SlowCompile slow(1);  // each compile stays pending >= 80 ms
  jit::set_policy(jit::Policy::kOn);
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0}, answers{0};
  std::vector<std::thread> threads;
  // One scorer alternating keys: it drops each snapshot before the next
  // get(), so the other key is never lease-pinned and every switch
  // evicts it.
  threads.emplace_back([&] {
    api::ScoreRequest request;
    request.x = &x;
    request.outputs = api::kEstimateOutputs;
    api::ScoreResult result;
    for (int i = 0; !stop.load(); ++i) {
      const bool hot = i % 2 == 0;
      const auto hmd = registry.get(hot ? "hot" : "other");
      hmd->score(request, result);
      const api::ScoreResult& want =
          !hot ? expect_other
               : hmd->engine().n_members() == 20 ? expect_v1 : expect_v2;
      if (!same_columns(result, want)) ++mismatches;
      ++answers;
    }
  });
  threads.emplace_back([&] {
    while (!stop.load()) {
      registry.refresh();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int publish = 0; publish < 6; ++publish) {
    core::save_model(publish % 2 == 0 ? v2 : v1, hot_path);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(answers.load(), 0);
  EXPECT_GT(registry.health("hot").evictions, 0u);
  EXPECT_GE(registry.health("hot").loads_ok, 2u);

  // Settled: the last publish (v1) serves on installed native kernels.
  fail::disarm("jit.tree");
  registry.refresh();
  const auto hot = registry.get("hot");
  hot->flat_forest().wait_for_jit();
  EXPECT_EQ(hot->engine().kernel_backend(),
            jit::available() ? "jit" : "arena");
  api::ScoreRequest request;
  request.x = &x;
  request.outputs = api::kEstimateOutputs;
  api::ScoreResult result;
  hot->score(request, result);
  EXPECT_TRUE(same_columns(result, expect_v1));
  std::filesystem::remove_all(dir);
}

}  // namespace
