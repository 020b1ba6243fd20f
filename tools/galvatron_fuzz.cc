// galvatron_fuzz: deterministic differential-fuzzing driver over the
// search / estimator / simulator / plan-I/O stack (see docs/fuzzing.md).
//
//   galvatron_fuzz                         # 100 iterations of all checks
//   galvatron_fuzz --seed=7 --iterations=1000
//   galvatron_fuzz --checks=memory-model,json-roundtrip
//   galvatron_fuzz --corpus                # the pinned regression corpus
//   galvatron_fuzz --repro=memory-model:0x1234abcd
//
// Every reported failure prints its per-iteration seed; --repro replays
// exactly that iteration. On failure a minimized repro document
// (fuzz_<check>_<seed>.json) is written to --dump-dir. Exit codes: 0 clean,
// 1 failures found, 2 usage error.

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "testing/corpus.h"
#include "testing/invariant_checks.h"
#include "util/string_util.h"

namespace galvatron {
namespace {

struct FuzzCliArgs {
  uint64_t seed = 1;
  int iterations = 100;
  std::vector<FuzzCheck> checks;  // empty = all
  bool corpus = false;
  bool list_checks = false;
  bool has_repro = false;
  FuzzCheck repro_check = FuzzCheck::kPlanValidity;
  uint64_t repro_seed = 0;
  std::string dump_dir = ".";
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: galvatron_fuzz [options]\n"
               "  --seed=N            base seed of the campaign (default 1)\n"
               "  --iterations=N      iterations per check (default 100)\n"
               "  --checks=a,b,...    subset of checks (default: all; "
               "see --list-checks)\n"
               "  --corpus            run the pinned seed/JSON corpus only\n"
               "  --repro=CHECK:SEED  replay one reported iteration\n"
               "  --dump-dir=PATH     where failure repros are written "
               "(default .)\n"
               "  --list-checks       print the check names and exit\n");
}

Result<uint64_t> ParseU64(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return Status::InvalidArgument(
        StrFormat("bad number '%s'", text.c_str()));
  }
  return static_cast<uint64_t>(v);
}

Result<FuzzCliArgs> ParseArgs(int argc, char** argv) {
  FuzzCliArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      std::exit(0);
    } else if (arg == "--corpus") {
      args.corpus = true;
    } else if (arg == "--list-checks") {
      args.list_checks = true;
    } else if (auto v = value_of("--seed=")) {
      GALVATRON_ASSIGN_OR_RETURN(args.seed, ParseU64(*v));
    } else if (auto v = value_of("--iterations=")) {
      GALVATRON_ASSIGN_OR_RETURN(uint64_t n, ParseU64(*v));
      if (n == 0 || n > 1000000) {
        return Status::InvalidArgument("iterations must be in [1, 1000000]");
      }
      args.iterations = static_cast<int>(n);
    } else if (auto v = value_of("--checks=")) {
      std::string rest = *v;
      while (!rest.empty()) {
        const size_t comma = rest.find(',');
        const std::string token = rest.substr(0, comma);
        GALVATRON_ASSIGN_OR_RETURN(FuzzCheck check,
                                   FuzzCheckFromString(token));
        args.checks.push_back(check);
        if (comma == std::string::npos) break;
        rest = rest.substr(comma + 1);
      }
      if (args.checks.empty()) {
        return Status::InvalidArgument("--checks needs at least one name");
      }
    } else if (auto v = value_of("--repro=")) {
      const size_t colon = v->find(':');
      if (colon == std::string::npos) {
        return Status::InvalidArgument("--repro wants CHECK:SEED");
      }
      GALVATRON_ASSIGN_OR_RETURN(args.repro_check,
                                 FuzzCheckFromString(v->substr(0, colon)));
      GALVATRON_ASSIGN_OR_RETURN(args.repro_seed,
                                 ParseU64(v->substr(colon + 1)));
      args.has_repro = true;
    } else if (auto v = value_of("--dump-dir=")) {
      args.dump_dir = *v;
    } else {
      return Status::InvalidArgument(StrFormat("unknown flag '%s'",
                                               arg.c_str()));
    }
  }
  return args;
}

void DumpFailure(const CheckFailure& failure, const std::string& dump_dir) {
  const std::string path = StrFormat(
      "%s/fuzz_%s_%llx.json", dump_dir.c_str(),
      std::string(FuzzCheckToString(failure.check)).c_str(),
      static_cast<unsigned long long>(failure.seed));
  std::ofstream out(path);
  if (out) {
    out << failure.repro_json;
    std::fprintf(stderr, "  repro written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "  (could not write repro to %s)\n", path.c_str());
  }
}

void PrintFailure(const CheckFailure& failure, const std::string& dump_dir) {
  std::fprintf(stderr, "FAIL [%s] seed=0x%llx\n  %s\n",
               std::string(FuzzCheckToString(failure.check)).c_str(),
               static_cast<unsigned long long>(failure.seed),
               failure.detail.c_str());
  std::fprintf(stderr, "  replay: galvatron_fuzz --repro=%s:0x%llx\n",
               std::string(FuzzCheckToString(failure.check)).c_str(),
               static_cast<unsigned long long>(failure.seed));
  DumpFailure(failure, dump_dir);
}

int Main(int argc, char** argv) {
  Result<FuzzCliArgs> args_or = ParseArgs(argc, argv);
  if (!args_or.ok()) {
    std::fprintf(stderr, "galvatron_fuzz: %s\n",
                 args_or.status().ToString().c_str());
    PrintUsage(stderr);
    return 2;
  }
  const FuzzCliArgs& args = *args_or;

  if (args.list_checks) {
    for (int i = 0; i < kNumFuzzChecks; ++i) {
      std::printf("%s\n",
                  std::string(FuzzCheckToString(static_cast<FuzzCheck>(i)))
                      .c_str());
    }
    return 0;
  }

  if (args.has_repro) {
    std::optional<CheckFailure> failure =
        RunCheck(args.repro_check, args.repro_seed);
    if (failure.has_value()) {
      PrintFailure(*failure, args.dump_dir);
      return 1;
    }
    std::printf("PASS [%s] seed=0x%llx\n",
                std::string(FuzzCheckToString(args.repro_check)).c_str(),
                static_cast<unsigned long long>(args.repro_seed));
    return 0;
  }

  if (args.corpus) {
    const std::vector<CheckFailure> failures = RunCorpus();
    for (const CheckFailure& failure : failures) {
      PrintFailure(failure, args.dump_dir);
    }
    const int cases = static_cast<int>(SeedCorpus().size()) +
                      static_cast<int>(JsonCorpus().size());
    std::printf("corpus: %d cases, %d failures\n", cases,
                static_cast<int>(failures.size()));
    return failures.empty() ? 0 : 1;
  }

  FuzzOptions options;
  options.seed = args.seed;
  options.iterations = args.iterations;
  options.checks = args.checks;
  const FuzzReport report = RunFuzz(options);
  for (const CheckFailure& failure : report.failures) {
    PrintFailure(failure, args.dump_dir);
  }
  std::printf("fuzz: seed=0x%llx, %d iterations run, %d failures\n",
              static_cast<unsigned long long>(args.seed),
              report.iterations_run,
              static_cast<int>(report.failures.size()));
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace galvatron

int main(int argc, char** argv) { return galvatron::Main(argc, argv); }
