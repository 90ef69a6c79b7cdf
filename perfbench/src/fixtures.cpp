// Fixtures: datasets, trained artifacts (both versions of the
// republished key) and request-row pools, all derived from the workload
// seed through the library under test. Runs once per (workload, seed),
// outside every timed region.

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "common.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "datasets/dvfs_dataset.h"
#include "datasets/hpc_dataset.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

Matrix stack(const Matrix& a, const Matrix& b) {
  std::vector<double> data = a.storage();
  data.insert(data.end(), b.storage().begin(), b.storage().end());
  return Matrix::from_storage(a.rows() + b.rows(), a.cols(), std::move(data));
}

data::DatasetBundle dvfs_bundle(std::uint64_t seed) {
  data::DvfsDatasetConfig config;
  config.seed = seed;
  return data::build_dvfs_dataset(config);
}

data::DatasetBundle hpc_bundle(std::uint64_t seed, std::size_t n_train) {
  data::HpcDatasetConfig config;
  config.seed = seed;
  config.n_train = n_train;
  config.n_test = 1024;
  config.n_unknown = 1024;
  return data::build_hpc_dataset(config);
}

class FixtureWriter {
 public:
  explicit FixtureWriter(const std::string& dir) : dir_(dir) {
    fs::create_directories(dir_ + "/v1");
    fs::create_directories(dir_ + "/v2");
  }

  /// Train `kind` x `members` on `train` with bagging seed `seed` and
  /// save it as version `version` of `key`.
  void train(const std::string& key, Family family, core::ModelKind kind,
             int members, const ml::Dataset& train, std::uint64_t seed,
             int version) {
    core::HmdConfig config;
    config.model = kind;
    config.n_members = members;
    config.n_threads = 4;
    config.entropy_threshold = 0.40;
    config.mode = core::UncertaintyMode::kVoteEntropy;
    config.seed = seed;
    core::TrustedHmd hmd(config);
    hmd.fit(train);
    std::string rel = "v";  // appended in place: see Json::key
    rel += std::to_string(version);
    rel += '/';
    rel += key;
    rel += ".hmdf";
    core::save_model(hmd, dir_ + "/" + rel);
    if (version == 2) {
      v2_[key] = rel;
      return;
    }
    families_[key] = family;
    v1_[key] = rel;
  }

  void pool(Family family, const data::DatasetBundle& bundle) {
    const std::string rel =
        family == Family::kDvfs ? "pool_dvfs.bin" : "pool_hpc.bin";
    write_matrix(dir_ + "/" + rel, stack(bundle.test.X, bundle.unknown.X));
    pools_.push_back((family == Family::kDvfs ? "pool dvfs " : "pool hpc ") +
                     rel);
  }

  /// Write the manifest with keys in the order of `keys`.
  void finish(const std::vector<std::string>& keys) {
    std::ofstream out(dir_ + "/manifest.txt");
    for (const std::string& key : keys) {
      const auto v2 = v2_.find(key);
      out << "key " << key << ' '
          << (families_.at(key) == Family::kDvfs ? "dvfs" : "hpc") << ' '
          << v1_.at(key) << ' ' << (v2 == v2_.end() ? "-" : v2->second)
          << '\n';
    }
    for (const std::string& line : pools_) out << line << '\n';
    if (!out) throw std::runtime_error("cannot write fixture manifest");
  }

 private:
  std::string dir_;
  std::vector<std::string> pools_;
  std::map<std::string, Family> families_;
  std::map<std::string, std::string> v1_, v2_;
};

}  // namespace

void build_fixtures(const Workload& w, std::uint64_t seed,
                    const std::string& dir) {
  using core::ModelKind;
  FixtureWriter b(dir);
  if (w.name == "dvfs-stream") {
    const data::DatasetBundle dvfs = dvfs_bundle(mix_seed(seed, 1));
    b.train("dvfs", Family::kDvfs, ModelKind::kRandomForest, 100, dvfs.train,
            mix_seed(seed, 10), 1);
    b.train("dvfs", Family::kDvfs, ModelKind::kRandomForest, 100, dvfs.train,
            mix_seed(seed, 11), 2);
    b.pool(Family::kDvfs, dvfs);
  } else if (w.name == "hpc-estimate") {
    // A forest the size of bench_latency's hpc_rf_8k: deep trees over
    // 8000 HPC rows, which the auto policy JIT-compiles.
    const data::DatasetBundle hpc = hpc_bundle(mix_seed(seed, 2), 8000);
    b.train("hpc_rf", Family::kHpc, ModelKind::kRandomForest, 100, hpc.train,
            mix_seed(seed, 20), 1);
    b.train("hpc_rf", Family::kHpc, ModelKind::kRandomForest, 100, hpc.train,
            mix_seed(seed, 21), 2);
    b.train("hpc_lr", Family::kHpc, ModelKind::kBaggedLogistic, 100,
            hpc.train, mix_seed(seed, 22), 1);
    b.pool(Family::kHpc, hpc);
  } else {
    throw std::invalid_argument("no fixtures for workload " + w.name);
  }
  b.finish(w.keys);
}

}  // namespace perfbench
