// Fast-math GEMM build; see kernels.hpp.  This translation unit is
// compiled with -O3 -ffast-math (set in CMakeLists.txt).
//
// Non-trivial shapes run the cache-blocked register-tiled core with
// thread-pool dispatch; tiny shapes run the naive row-blocked bodies
// (gemm_body.inc).  The gate depends only on the shape, so the
// thread-count bit-identity contract holds on either path.
#include "nn/kernels.hpp"

#define CALTRAIN_GEMM_SUFFIX Fast
#define CALTRAIN_GEMM_PARALLEL 1
#include "nn/gemm_tile.inc"
