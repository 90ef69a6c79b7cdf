// The traced run: replays the workload's closed-loop request stream
// in-process through each layer's public entry points in server order —
// wire::parse_frame, MicroBatcher enqueue/flush (which calls
// DetectorRegistry::get and score()), the engine's stats_batch,
// wire::append_result — in alternating untraced and traced passes. It
// also times the artifact-load stages of a representative artifact and
// drives the residency tier's evict / reload-on-get path.
//
// Spans are recorded by this file only, around the calls into each
// layer: the engine is wrapped (a delegating InferenceEngine installed by
// the registry loader) so stats_batch becomes a child span of the batcher
// flush that caused it; the result sink spans encoding and closes a
// derive span from the end of stats_batch to the first result scattered.
// Spans are kept in memory and reduced to self times (span duration
// minus child spans) per pass. registry get/try_get cost is measured
// directly on the warmed registry.

#include <algorithm>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "api/detector_registry.h"
#include "common.h"
#include "common/binary_io.h"
#include "common/checksum.h"
#include "common/mapped_file.h"
#include "core/flat_forest.h"
#include "core/flat_linear.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "jit/jit.h"
#include "serve/batcher.h"
#include "serve/wire.h"
#include "serve_run.h"

namespace perfbench {

namespace {

namespace wire = serve::wire;

enum SpanName : std::uint8_t {
  kBurst,     // one closed-loop burst: the replay harness itself
  kDecode,    // wire::parse_frame
  kEnqueue,   // MicroBatcher::enqueue (may flush at the rows cap)
  kFlush,     // MicroBatcher::flush_all (idle flush)
  kStatsRf,   // engine stats_batch, forest
  kStatsLr,   // engine stats_batch, linear
  kDerive,    // score(): stats_batch end -> first result scattered
  kEncode,    // wire::append_result / append_error in the sinks
  kSpanNames
};
const char* const kSpanLabels[kSpanNames] = {
    "harness", "wire.decode", "batcher.enqueue", "batcher.flush",
    "engine.rf.stats_batch", "engine.lr.stats_batch", "score.derive",
    "wire.encode"};

struct Span {
  std::int64_t start = 0, end = 0;
  std::int32_t parent = -1;
  std::uint32_t burst = 0;  // spans of one burst share this identifier
  SpanName name = kBurst;
};

class Tracer {
 public:
  bool on = false;
  std::uint32_t burst = 0;

  std::int32_t begin(SpanName name) {
    if (!on) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.burst = burst;
    s.start = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void end(std::int32_t id) {
    if (id < 0) return;
    spans_[id].end = now_ns();
    stack_.pop_back();
  }
  /// A span whose interval is already known, under the open span.
  void add(SpanName name, std::int64_t start, std::int64_t end) {
    if (!on) return;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.burst = burst;
    s.start = start;
    s.end = end;
    spans_.push_back(s);
  }

  /// Self time per span name (duration minus children), in ns.
  std::vector<double> self_ns() const {
    std::vector<double> self(kSpanNames, 0.0);
    for (const Span& s : spans_) {
      const double d = static_cast<double>(s.end - s.start);
      self[s.name] += d;
      if (s.parent >= 0) self[spans_[s.parent].name] -= d;
    }
    return self;
  }
  void clear() { spans_.clear(); }

  /// Close the open scatter group: one encode span from the first result
  /// sink of a flushed queue until control is back here (the next queue's
  /// stats_batch or the end of the enqueue/flush step), so the sinks need
  /// no clock read of their own.
  void close_encode() {
    if (encode_start == 0) return;
    add(kEncode, encode_start, now_ns());
    encode_start = 0;
  }

  // Bookkeeping between the engine wrapper and the result sink: derive
  // runs from the end of stats_batch to the first sink of its flush.
  std::int64_t stats_end = 0;
  bool derive_pending = false;
  double batch_score_ns = 0.0;  ///< stats_batch + derive of the open flush
  std::int64_t encode_start = 0;
  std::size_t rf_rows = 0, lr_rows = 0;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Delegating engine: times stats_batch as a span, forwards the rest.
class TracingEngine : public core::InferenceEngine {
 public:
  TracingEngine(std::shared_ptr<const core::TrustedHmd> inner, Tracer& tracer)
      : inner_(std::move(inner)),
        engine_(inner_->engine()),
        tracer_(tracer),
        forest_(inner_->config().model == core::ModelKind::kRandomForest) {}

  std::string name() const override { return engine_.name(); }
  core::EngineId engine_id() const override { return engine_.engine_id(); }
  std::size_t n_members() const override { return engine_.n_members(); }
  std::size_t n_features() const override { return engine_.n_features(); }
  core::EnsembleStats stats_one(RowView x) const override {
    return engine_.stats_one(x);
  }
  void stats_batch(const Matrix& x, core::ThreadPool* pool,
                   std::vector<core::EnsembleStats>& out,
                   core::StatsMask mask) const override {
    tracer_.close_encode();
    const std::int64_t start = now_ns();
    const std::int32_t span = tracer_.begin(forest_ ? kStatsRf : kStatsLr);
    engine_.stats_batch(x, pool, out, mask);
    tracer_.end(span);
    tracer_.stats_end = now_ns();
    tracer_.derive_pending = true;
    tracer_.batch_score_ns = static_cast<double>(tracer_.stats_end - start);
    (forest_ ? tracer_.rf_rows : tracer_.lr_rows) += x.rows();
  }
  void save_blob(std::ostream& out) const override { engine_.save_blob(out); }
  void save_blob_v2(io::AlignedWriter& out) const override {
    engine_.save_blob_v2(out);
  }
  bool zero_copy() const override { return engine_.zero_copy(); }
  std::string kernel_backend() const override {
    return engine_.kernel_backend();
  }
  std::size_t memory_bytes() const override { return engine_.memory_bytes(); }

 private:
  std::shared_ptr<const core::TrustedHmd> inner_;  // owns engine_
  const core::InferenceEngine& engine_;
  Tracer& tracer_;
  bool forest_;
};

// Queue wait is sampled on every kQueueWaitSample-th request: two clock
// reads per request would be a large share of dvfs-stream's ~0.7 us.
constexpr std::size_t kQueueWaitSample = 8;
// Untraced and traced passes over the stream, alternating.
constexpr int kPasses = 9;

struct Request {
  std::uint32_t key = 0;
  std::uint32_t row = 0;
  std::size_t offset = 0;  ///< frame bytes in the encoded stream
  std::size_t bytes = 0;
};

struct PassResult {
  double ns = 0.0;  ///< sum of timed burst sections
  std::uint64_t failed = 0;
  std::vector<double> queue_wait_us;
};

class Replay {
 public:
  Replay(const Workload& w, const Fixtures& f, std::uint64_t seed)
      : w_(w), f_(f) {
    for (const auto& [family, path] : f.pools) pools_[family] = read_matrix(path);
    std::size_t min_rows = SIZE_MAX;
    for (const auto& [family, pool] : pools_) min_rows = std::min(min_rows, pool.rows());
    jit::set_policy(jit::Policy::kOff);  // oracle: interpreted arena
    for (const FixtureKey& k : f.keys) {
      api::ScoreRequest request;
      request.x = &pools_.at(k.family);
      request.outputs = w.outputs;
      oracles_.emplace_back();
      core::load_model(k.path, 1).score(request, oracles_.back());
    }
    jit::set_policy(jit::Policy::kAuto);
    RequestStream stream(w, min_rows, mix_seed(seed, 300));
    for (std::size_t i = 0; i < w.replay_requests; ++i) {
      Request r;
      stream.next(r.key, r.row);
      r.offset = frames_.size();
      const bool unknown = r.key == kUnknownKey;
      const Matrix& pool =
          pools_.at(unknown ? Family::kHpc : f.keys[r.key].family);
      wire::append_request(frames_, static_cast<std::uint32_t>(i),
                           unknown ? unknown_key_name(r.row) : f.keys[r.key].name,
                           w.outputs, std::nullopt, pool.row_ptr(r.row),
                           w.rows_per_request, pool.cols());
      r.bytes = frames_.size() - r.offset;
      requests_.push_back(r);
    }
    fleet_.filter = true;
  }

  std::unique_ptr<api::DetectorRegistry> registry(Tracer* tracer) const {
    auto r = std::make_unique<api::DetectorRegistry>(1, core::LoadMode::kAuto,
                                                     fleet_);
    for (const FixtureKey& k : f_.keys) r->add(k.name, k.path);
    if (tracer != nullptr) {
      r->set_loader_for_testing([tracer](const std::string& path, int threads) {
        auto loaded = std::make_shared<const core::TrustedHmd>(
            core::load_model(path, threads, core::LoadMode::kAuto));
        return std::make_shared<const core::TrustedHmd>(
            loaded->config(), std::make_unique<TracingEngine>(loaded, *tracer),
            loaded->input_scaler(), loaded->converged_fraction());
      });
    }
    return r;
  }

  /// Replay the whole stream through a fresh batcher on `registry`.
  PassResult pass(api::DetectorRegistry& registry, Tracer& tracer) {
    const std::size_t end = requests_.size();
    PassResult result;
    std::vector<unsigned char> out;
    std::vector<std::int64_t> enqueued(requests_.size(), 0);
    serve::MicroBatcher batcher(
        registry, serve::BatcherOptions{},
        [&](const serve::BatchItem& item, const api::ScoreResult& scored) {
          if (!tracer.on) {
            wire::append_result(out, item.request_id, item.outputs, scored,
                                item.row_begin, item.rows, item.accuracy);
            return;
          }
          const bool sampled = item.request_id % kQueueWaitSample == 0;
          const std::int64_t now =
              tracer.derive_pending || sampled ? now_ns() : 0;
          if (tracer.derive_pending) {
            tracer.add(kDerive, tracer.stats_end, now);
            tracer.batch_score_ns += static_cast<double>(now - tracer.stats_end);
            tracer.derive_pending = false;
            tracer.encode_start = now;
          }
          if (sampled) {
            result.queue_wait_us.push_back(
                (static_cast<double>(now - enqueued[item.request_id]) -
                 tracer.batch_score_ns) / 1e3);
          }
          wire::append_result(out, item.request_id, item.outputs, scored,
                              item.row_begin, item.rows, item.accuracy);
        },
        [&](const serve::BatchItem& item, wire::ErrorCode code,
            const std::string& detail) {
          const std::int32_t span = tracer.begin(kEncode);
          wire::append_error(out, item.request_id, code, detail);
          tracer.end(span);
        });
    const std::size_t burst = static_cast<std::size_t>(w_.connections) *
                              static_cast<std::size_t>(w_.pipeline);
    std::vector<wire::Frame> parsed(burst);
    for (std::size_t b = 0; b < end; b += burst) {
      const std::size_t stop = std::min(end, b + burst);
      out.clear();
      ++tracer.burst;
      const std::int64_t t0 = now_ns();
      const std::int32_t root = tracer.begin(kBurst);
      // A burst's frames arrive together: decode them all, then enqueue
      // them all, then the idle flush — one span per step, not per frame.
      std::int32_t span = tracer.begin(kDecode);
      for (std::size_t i = b; i < stop; ++i) {
        wire::parse_frame(frames_.data() + requests_[i].offset,
                          requests_[i].bytes, wire::kMaxPayloadBytes,
                          parsed[i - b]);
      }
      tracer.end(span);
      span = tracer.begin(kEnqueue);
      for (std::size_t i = b; i < stop; ++i) {
        const wire::RequestView& r = parsed[i - b].request;
        if (tracer.on && i % kQueueWaitSample == 0) enqueued[i] = now_ns();
        batcher.enqueue(0, r.request_id, r.model_key, r.outputs, r.mode,
                        r.features, r.rows, r.cols, r.accuracy);
      }
      tracer.close_encode();
      tracer.end(span);
      span = tracer.begin(kFlush);
      batcher.flush_all();
      tracer.close_encode();
      tracer.end(span);
      tracer.end(root);
      result.ns += static_cast<double>(now_ns() - t0);
      result.failed += verify(out, b, stop);
    }
    return result;
  }

  /// Check every answer of requests [begin, end) in `out`; returns the
  /// number that are wrong or missing.
  std::uint64_t verify(const std::vector<unsigned char>& out, std::size_t begin,
                       std::size_t end) {
    std::uint64_t answered = 0, bad = 0;
    std::size_t off = 0;
    while (off < out.size()) {
      wire::Frame frame;
      const std::size_t used = wire::parse_frame(
          out.data() + off, out.size() - off, wire::kMaxPayloadBytes, frame);
      if (used == 0) break;
      off += used;
      ++answered;
      const std::uint32_t id = frame.type == wire::FrameType::kScoreResult
                                   ? frame.result.request_id
                                   : frame.error.request_id;
      if (id < begin || id >= end) {
        ++bad;
        continue;
      }
      const Request& r = requests_[id];
      if (r.key == kUnknownKey) {
        bad += !(frame.type == wire::FrameType::kError &&
                 frame.error.code == wire::ErrorCode::kUnknownModel);
        continue;
      }
      if (frame.type != wire::FrameType::kScoreResult) {
        ++bad;
        continue;
      }
      wire::unpack_result(frame.result, scratch_);
      bad += !same_rows(scratch_, 0, oracles_[r.key], r.row, w_.outputs,
                        w_.rows_per_request);
    }
    return bad + ((end - begin) - std::min<std::uint64_t>(answered, end - begin));
  }

  /// The residency tier's evict / reload-on-get path: a fresh registry
  /// whose byte budget holds its largest artifact alone serves the first
  /// `count` known-key requests of the stream, each scored and checked.
  std::string residency_leg(std::size_t count) {
    auto reg = registry(nullptr);
    std::size_t largest = 0, before = 0;
    for (const FixtureKey& k : f_.keys) {
      if (reg->get(k.name) == nullptr) throw std::runtime_error("lost key");
      const std::size_t now = reg->fleet_stats().residency.resident_bytes;
      largest = std::max(largest, now - before);
      before = now;
    }
    reg->set_residency_budget_bytes(largest);
    const fleet::ResidencyStats start = reg->fleet_stats().residency;
    std::vector<double> reload_ms;
    std::size_t gets = 0;
    std::uint64_t bad = 0;
    api::ScoreRequest request;
    request.outputs = w_.outputs;
    for (std::size_t i = 0; i < requests_.size() && gets < count; ++i) {
      const Request& r = requests_[i];
      if (r.key == kUnknownKey) continue;
      const std::uint64_t admits = reg->fleet_stats().residency.admits;
      const std::int64_t t0 = now_ns();
      const auto detector = reg->get(f_.keys[r.key].name);
      const std::int64_t t1 = now_ns();
      ++gets;
      if (reg->fleet_stats().residency.admits != admits) {
        reload_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      }
      const Matrix& pool = pools_.at(f_.keys[r.key].family);
      const Matrix rows = Matrix::from_storage(
          w_.rows_per_request, pool.cols(),
          std::vector<double>(pool.row_ptr(r.row),
                              pool.row_ptr(r.row) + w_.rows_per_request * pool.cols()));
      request.x = &rows;
      detector->score(request, scratch_);
      bad += !same_rows(scratch_, 0, oracles_[r.key], r.row, w_.outputs,
                        w_.rows_per_request);
    }
    const fleet::ResidencyStats end = reg->fleet_stats().residency;
    const double reloads = static_cast<double>(reload_ms.size());
    return Json()
        .integer("requests", static_cast<long long>(gets))
        .integer("failed", static_cast<long long>(bad))
        .integer("budget_bytes", static_cast<long long>(largest))
        .num("reloads", reloads)
        .num("evictions", static_cast<double>(end.evictions - start.evictions))
        .num("resident_hit_share", gets ? 1.0 - reloads / static_cast<double>(gets) : 0.0)
        // A mean: forest and LR reloads alternate, and a median would
        // fall between the two populations.
        .num("reload_ms", reloads > 0 ? std::accumulate(reload_ms.begin(),
                                                        reload_ms.end(), 0.0) /
                                            reloads
                                      : 0.0)
        .str();
  }

  std::size_t size() const { return requests_.size(); }
  const Matrix& pool(Family f) const { return pools_.at(f); }

 private:
  const Workload& w_;
  const Fixtures& f_;
  fleet::FleetOptions fleet_;
  std::map<Family, Matrix> pools_;
  std::vector<api::ScoreResult> oracles_;
  std::vector<unsigned char> frames_;
  std::vector<Request> requests_;
  api::ScoreResult scratch_;
};

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

/// Artifact-load stages of `path`, each timed on its own, medians over
/// `reps` rounds. map: read the 8-byte header and
/// ArtifactBuffer::map_file; verify: XXH64 of each section; parse: the
/// engine section's from_buffer over that mapping with the JIT off, and
/// the servable detector built around it; JIT compile: the engine's own
/// jit_compile_ms() of the load below; first batch: the first score() of
/// one request's rows on that load. load_ms is a JIT-policy-auto
/// load_model plus its first batch, timed as a whole.
std::string load_stages(const std::string& path, int reps, const Matrix& rows,
                        api::OutputMask outputs, std::size_t rows_per_request) {
  std::vector<double> map_ms, verify_ms, parse_ms, jit_ms, first_ms, load_ms;
  const Matrix request_rows = Matrix::from_storage(
      rows_per_request, rows.cols(),
      std::vector<double>(rows.storage().begin(),
                          rows.storage().begin() +
                              static_cast<std::ptrdiff_t>(rows_per_request * rows.cols())));
  api::ScoreRequest request;
  request.x = &request_rows;
  request.outputs = outputs;
  const core::ArtifactInfo info = core::inspect_model(path);
  if (info.sections.size() != 3 || !info.section_checksums) {
    throw std::runtime_error("not a checksummed v2 artifact: " + path);
  }
  // The config and scaler sections are a few dozen bytes; the parse
  // stage takes them from a reference load and times the engine section
  // plus the detector assembly (vote table, thread pool).
  jit::set_policy(jit::Policy::kOff);
  const core::TrustedHmd reference = core::load_model(path, 1);
  jit::set_policy(jit::Policy::kAuto);
  for (int i = 0; i < reps; ++i) {
    std::int64_t t0 = now_ns();
    {
      // load_model's first step: open the file and check its 8-byte header.
      std::ifstream header(path, std::ios::binary);
      char bytes[8];
      if (!header.read(bytes, sizeof(bytes))) {
        throw std::runtime_error("cannot read " + path);
      }
    }
    const auto buffer = std::make_shared<const io::ArtifactBuffer>(
        io::ArtifactBuffer::map_file(path));
    const std::int64_t t1 = now_ns();
    for (const core::ArtifactSectionInfo& s : info.sections) {
      if (io::xxhash64(buffer->data() + s.offset, s.size) != s.checksum) {
        throw std::runtime_error("section checksum mismatch in " + path);
      }
    }
    const std::int64_t t2 = now_ns();
    jit::set_policy(jit::Policy::kOff);
    io::ByteReader in(buffer->data(), buffer->size(), path);
    in.seek(info.sections[2].offset, 64);  // sections are 64-byte aligned
    std::unique_ptr<core::InferenceEngine> engine;
    if (static_cast<core::EngineId>(in.read_pod<std::uint32_t>()) ==
        core::EngineId::kFlatForest) {
      engine = core::FlatForestEngine::from_buffer(in, buffer, false);
    } else {
      engine = core::FlatLinearEngine::from_buffer(in, buffer);
    }
    const core::TrustedHmd parsed(reference.config(), std::move(engine),
                                  reference.input_scaler(),
                                  reference.converged_fraction());
    const std::int64_t t3 = now_ns();
    jit::set_policy(jit::Policy::kAuto);
    map_ms.push_back(ms_between(t0, t1));
    verify_ms.push_back(ms_between(t1, t2));
    parse_ms.push_back(ms_between(t2, t3));

    api::ScoreResult result;
    t0 = now_ns();
    const core::TrustedHmd hmd = core::load_model(path, 1);
    const std::int64_t loaded = now_ns();
    hmd.score(request, result);
    const std::int64_t scored = now_ns();
    const bool forest = hmd.config().model == core::ModelKind::kRandomForest;
    jit_ms.push_back(forest ? hmd.flat_forest().jit_compile_ms() : 0.0);
    first_ms.push_back(ms_between(loaded, scored));
    load_ms.push_back(ms_between(t0, scored));
  }
  const double sum = median(map_ms) + median(verify_ms) + median(parse_ms) +
                     median(jit_ms) + median(first_ms);
  return Json()
      .num("map_ms", median(map_ms))
      .num("verify_ms", median(verify_ms))
      .num("parse_ms", median(parse_ms))
      .num("jit_compile_ms", median(jit_ms))
      .num("first_batch_ms", median(first_ms))
      .num("load_ms", median(load_ms))
      .num("stage_sum_ms", sum)
      .integer("samples", reps)
      .str();
}

}  // namespace

int replay(const ServeRunOptions& options) {
  const Workload& w = workload(options.workload);
  const Fixtures f = read_fixtures(options.fixtures);
  Replay replay(w, f, options.seed);
  const double n = static_cast<double>(replay.size());

  Tracer off;
  Tracer tracer;
  auto plain = replay.registry(nullptr);
  auto traced = replay.registry(&tracer);
  // Warm each registry (loads, caches) over the whole stream, untimed.
  replay.pass(*plain, off);
  replay.pass(*traced, off);

  // Alternate untraced and traced passes; every figure is a median over
  // passes, so a host stall spoils one pass, not the figure.
  std::vector<double> untraced, traced_total, stage_sum, rf_per_row,
      lr_per_row, queue_wait;
  std::vector<std::vector<double>> self(kSpanNames);
  std::uint64_t failed = 0;
  for (int i = 0; i < kPasses; ++i) {
    const PassResult u = replay.pass(*plain, off);
    tracer.on = true;
    tracer.rf_rows = tracer.lr_rows = 0;
    const PassResult t = replay.pass(*traced, tracer);
    tracer.on = false;
    const std::vector<double> s = tracer.self_ns();
    tracer.clear();
    failed += u.failed + t.failed;
    untraced.push_back(u.ns / n);
    traced_total.push_back(t.ns / n);
    // The layers' self times, without the replay harness's own.
    double sum = 0.0;
    for (int k = 0; k < kSpanNames; ++k) {
      self[k].push_back(s[k] / n);
      if (k != kBurst) sum += s[k] / n;
    }
    stage_sum.push_back(sum);
    if (tracer.rf_rows) rf_per_row.push_back(s[kStatsRf] / static_cast<double>(tracer.rf_rows));
    if (tracer.lr_rows) lr_per_row.push_back(s[kStatsLr] / static_cast<double>(tracer.lr_rows));
    queue_wait.insert(queue_wait.end(), t.queue_wait_us.begin(),
                      t.queue_wait_us.end());
  }
  Json selfs;
  for (int k = 0; k < kSpanNames; ++k) selfs.num(kSpanLabels[k], median(self[k]));
  std::sort(queue_wait.begin(), queue_wait.end());

  // Registry lookups on the warmed untraced registry.
  const std::string hot = w.keys.front();
  constexpr int kLookups = 200000;
  std::int64_t t0 = now_ns();
  for (int i = 0; i < kLookups; ++i) {
    if (plain->get(hot) == nullptr) throw std::runtime_error("lost hot key");
  }
  const double hit_ns = static_cast<double>(now_ns() - t0) / kLookups;
  std::vector<std::string> ghosts;
  for (std::uint32_t i = 0; i < 1024; ++i) ghosts.push_back(unknown_key_name(i));
  t0 = now_ns();
  for (int i = 0; i < kLookups; ++i) {
    if (plain->try_get(ghosts[static_cast<std::size_t>(i) & 1023]) != nullptr) {
      throw std::runtime_error("unknown key resolved");
    }
  }
  const double miss_ns = static_cast<double>(now_ns() - t0) / kLookups;

  // Load stages of the artifact each workload's set-up is dominated by:
  // the first key (the DVFS forest; the JIT-compiled HPC forest).
  const FixtureKey& first = f.keys.front();
  const std::string stages =
      load_stages(first.path, w.name == "hpc-estimate" ? 5 : 101,
                  replay.pool(first.family), w.outputs, w.rows_per_request);
  const std::string residency = replay.residency_leg(w.residency_requests);

  std::printf(
      "%s\n",
      Json()
          .integer("requests", static_cast<long long>(replay.size()))
          .integer("passes", kPasses)
          .integer("failed", static_cast<long long>(failed))
          .num("untraced_ns_per_req", median(untraced))
          .num("traced_ns_per_req", median(traced_total))
          .num("stage_sum_ns_per_req", median(stage_sum))
          .raw("self_ns_per_req", selfs.str())
          .num("rf_stats_ns_per_row", median(rf_per_row))
          .num("lr_stats_ns_per_row", median(lr_per_row))
          .num("derive_ns_per_row", median(self[kDerive]) / w.rows_per_request)
          .num("queue_wait_us_p50", quantile(queue_wait, 0.5))
          .num("registry_get_hit_ns", hit_ns)
          .num("registry_get_miss_ns", miss_ns)
          .raw("load", stages)
          .raw("residency", residency)
          .str()
          .c_str());
  return 0;
}

}  // namespace perfbench
