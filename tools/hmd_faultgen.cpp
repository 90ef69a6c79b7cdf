// hmd_faultgen — deterministic artifact corruption for fault-injection
// drills and tests.
//
// Reads a `.hmdf` artifact's section table (core::inspect_model — no
// checksum verification or payload parsing, so it works on artifacts
// whose sections the loader would reject) and
// produces a precisely-damaged variant: one flipped bit in a named
// section, a truncated tail, a zeroed section, or a torn half-written
// publish. Every mutation is written the same way a legitimate publish
// is — sibling temp file + rename — so a serving process under test
// observes exactly what a real bad publish looks like: a fresh inode
// carrying wrong bytes, never an in-place rewrite of the artifact it may
// be mmap-serving.
//
// commands:
//   info     FILE                 print version, size, and section table
//   bitflip  FILE [--section=config|scaler|engine] [--offset=N] [--bit=B]
//                                 flip one bit inside a section (defaults:
//                                 engine, offset 0, bit 0); with
//                                 --offset=-1, the section's middle byte
//   truncate FILE (--bytes=N | --keep=N)
//                                 drop N tail bytes / keep the first N
//   zero     FILE --section=NAME  zero a whole section
//   torn     FILE                 keep only the first half (a publish
//                                 interrupted mid-write by a non-atomic
//                                 foreign writer)
//   publish  SRC DST              temp+rename copy (the *correct* swap,
//                                 for restore legs of chaos drills)
//
// Exit codes: 0 success, 2 usage, 3 the artifact could not be read or
// the requested section/range does not exist.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/error.h"
#include "core/model_artifact.h"

namespace {

using namespace hmd;

[[noreturn]] void usage_error(const std::string& detail) {
  std::fprintf(stderr,
               "hmd_faultgen: %s\n"
               "usage: hmd_faultgen info FILE\n"
               "       hmd_faultgen bitflip FILE [--section=NAME] "
               "[--offset=N] [--bit=B]\n"
               "       hmd_faultgen truncate FILE (--bytes=N | --keep=N)\n"
               "       hmd_faultgen zero FILE --section=NAME\n"
               "       hmd_faultgen torn FILE\n"
               "       hmd_faultgen publish SRC DST\n",
               detail.c_str());
  std::exit(2);
}

std::vector<char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw LoadError(LoadErrorCode::kIo, path, "cannot open");
  }
  const auto size = static_cast<std::size_t>(in.tellg());
  std::vector<char> bytes(size);
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(size));
  if (!in) throw LoadError(LoadErrorCode::kIo, path, "read failed");
  return bytes;
}

/// Write `bytes` over `path` the way a real publish happens: sibling
/// temp file, then rename. (No fsync — a drill tool does not need the
/// durability discipline, only the fresh-inode visibility semantics.)
void publish_bytes(const std::vector<char>& bytes, const std::string& path) {
  const std::string tmp = path + ".fault.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("hmd_faultgen: cannot open " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) throw IoError("hmd_faultgen: write failed for " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

const core::ArtifactSectionInfo& find_section(const core::ArtifactInfo& info,
                                              const std::string& path,
                                              const std::string& name) {
  for (const auto& section : info.sections) {
    if (section.name == name) return section;
  }
  throw LoadError(LoadErrorCode::kBadStructure, path,
                  "no section named '" + name + "'");
}

struct Options {
  std::string section = "engine";
  long long offset = 0;
  int bit = 0;
  long long bytes = -1;
  long long keep = -1;
};

Options parse_options(int argc, char** argv, int first) {
  Options opts;
  args::Parser cli(
      argc, argv,
      [](const std::string& bad) { usage_error("bad argument '" + bad + "'"); },
      first);
  while (cli.next()) {
    if (cli.match("--section", opts.section)) continue;
    if (cli.match_int("--offset", opts.offset)) continue;
    if (cli.match_int("--bit", opts.bit, 0, 7)) continue;
    if (cli.match_int("--bytes", opts.bytes, 1)) continue;
    if (cli.match_int("--keep", opts.keep, 0)) continue;
    cli.reject();
  }
  return opts;
}

int cmd_info(const std::string& path) {
  const core::ArtifactInfo info = core::inspect_model(path);
  std::printf("%s: v%u, %llu bytes\n", path.c_str(), info.version,
              static_cast<unsigned long long>(info.file_bytes));
  for (const auto& section : info.sections) {
    std::printf("  %-8s offset %8llu  size %10llu  xxh64 %016llx\n",
                section.name.c_str(),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.size),
                static_cast<unsigned long long>(section.checksum));
  }
  return 0;
}

int cmd_bitflip(const std::string& path, const Options& opts) {
  const core::ArtifactInfo info = core::inspect_model(path);
  const auto& section = find_section(info, path, opts.section);
  if (section.size == 0) {
    throw LoadError(LoadErrorCode::kBadStructure, path,
                    "section '" + opts.section + "' is empty");
  }
  const std::uint64_t rel =
      opts.offset < 0 ? section.size / 2
                      : static_cast<std::uint64_t>(opts.offset);
  if (rel >= section.size) usage_error("--offset past end of section");
  std::vector<char> bytes = read_all(path);
  const std::uint64_t at = section.offset + rel;
  bytes[at] = static_cast<char>(bytes[at] ^ (1 << opts.bit));
  publish_bytes(bytes, path);
  std::printf("bitflip  %s: section %s byte %llu bit %d\n", path.c_str(),
              opts.section.c_str(), static_cast<unsigned long long>(rel),
              opts.bit);
  return 0;
}

int cmd_truncate(const std::string& path, const Options& opts) {
  if ((opts.bytes < 0) == (opts.keep < 0)) {
    usage_error("truncate needs exactly one of --bytes / --keep");
  }
  std::vector<char> bytes = read_all(path);
  const std::size_t keep =
      opts.keep >= 0
          ? static_cast<std::size_t>(opts.keep)
          : bytes.size() - std::min<std::size_t>(
                               bytes.size(),
                               static_cast<std::size_t>(opts.bytes));
  if (keep >= bytes.size()) usage_error("nothing to truncate");
  bytes.resize(keep);
  publish_bytes(bytes, path);
  std::printf("truncate %s: kept %zu bytes\n", path.c_str(), keep);
  return 0;
}

int cmd_zero(const std::string& path, const Options& opts) {
  const core::ArtifactInfo info = core::inspect_model(path);
  const auto& section = find_section(info, path, opts.section);
  std::vector<char> bytes = read_all(path);
  std::memset(bytes.data() + section.offset, 0,
              static_cast<std::size_t>(section.size));
  publish_bytes(bytes, path);
  std::printf("zero     %s: section %s (%llu bytes)\n", path.c_str(),
              opts.section.c_str(),
              static_cast<unsigned long long>(section.size));
  return 0;
}

int cmd_torn(const std::string& path) {
  std::vector<char> bytes = read_all(path);
  if (bytes.size() < 2) usage_error("file too small to tear");
  bytes.resize(bytes.size() / 2);
  publish_bytes(bytes, path);
  std::printf("torn     %s: kept first %zu bytes\n", path.c_str(),
              bytes.size());
  return 0;
}

int cmd_publish(const std::string& source, const std::string& target) {
  publish_bytes(read_all(source), target);
  std::printf("publish  %s -> %s\n", source.c_str(), target.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) usage_error("missing command or file");
  const std::string command = argv[1];
  const std::string path = argv[2];
  try {
    if (command == "info") {
      if (argc != 3) usage_error("info takes exactly one file");
      return cmd_info(path);
    }
    if (command == "bitflip") return cmd_bitflip(path, parse_options(argc, argv, 3));
    if (command == "truncate")
      return cmd_truncate(path, parse_options(argc, argv, 3));
    if (command == "zero") return cmd_zero(path, parse_options(argc, argv, 3));
    if (command == "torn") {
      if (argc != 3) usage_error("torn takes exactly one file");
      return cmd_torn(path);
    }
    if (command == "publish") {
      if (argc != 4) usage_error("publish takes SRC DST");
      return cmd_publish(path, argv[3]);
    }
    usage_error("unknown command '" + command + "'");
  } catch (const LoadError& error) {
    std::fprintf(stderr, "hmd_faultgen: load error [%s] %s: %s\n",
                 load_error_code_name(error.code()), error.path().c_str(),
                 error.detail().c_str());
    return 3;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hmd_faultgen: error: %s\n", error.what());
    return 3;
  }
}
