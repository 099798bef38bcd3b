// Strict-FP GEMM build modeling in-enclave execution; see kernels.hpp.
// This translation unit is compiled with -O3 -ffp-contract=off (set in
// CMakeLists.txt): no fast-math and no FMA contraction, whatever -march
// the rest of the build uses.
//
// Every shape runs the shared tiled core under the strict policy
// (gemm_tile.inc), serially: each output lane does the naive loops' IEEE
// multiply and add in the same order, so results are bit-identical to
// the serial-order reference (gemm_body.inc) on every ISA clone.
#include "nn/kernels.hpp"

#define CALTRAIN_GEMM_SUFFIX Precise
#define CALTRAIN_GEMM_STRICT 1
#include "nn/gemm_tile.inc"
