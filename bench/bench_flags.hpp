// Tiny argv helper shared by the bench drivers: the figure binaries take
// no positional arguments, only an optional `--jobs N` for the parallel
// experiment executor (0 = one worker per CPU in the affinity mask;
// results are identical for every N, only wall-clock changes).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace nidkit::bench {

inline std::size_t jobs_from_argv(int argc, char** argv,
                                  std::size_t fallback = 0) {
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      const long v = std::strtol(argv[i + 1], nullptr, 10);
      if (v >= 0) return static_cast<std::size_t>(v);
      std::fprintf(stderr, "ignoring negative --jobs %s\n", argv[i + 1]);
    }
  }
  return fallback;
}

}  // namespace nidkit::bench
