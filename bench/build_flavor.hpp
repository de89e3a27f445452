// Build-flavor provenance for the BENCH_*.json manifests: which SIMD backend
// the sweeps dispatched to, and which build produced the numbers (build type
// and whether CANB_NATIVE_ARCH was on). The root CMakeLists.txt passes both
// build facts as compile definitions on canb_bench_flags.
#pragma once

#include "obs/manifest.hpp"
#include "particles/simd/simd.hpp"

#ifndef CANB_BUILD_TYPE
#define CANB_BUILD_TYPE "unknown"
#endif
#ifndef CANB_NATIVE_ARCH
#define CANB_NATIVE_ARCH 0
#endif

namespace canb::bench {

inline void record_build_flavor(obs::RunManifest& manifest) {
  manifest.simd = particles::simd::backend_name(particles::simd::active());
  manifest.set("build_type", CANB_BUILD_TYPE)
      .set("native_arch", CANB_NATIVE_ARCH ? "true" : "false");
}

}  // namespace canb::bench
