// Just enough CUDA for `g++ -fsyntax-only` to parse an emitted kernel (CI only).
#define __global__
#define __shared__ static
#define __restrict__ __restrict
struct Dim3Shim { int x, y, z; } blockIdx, threadIdx;
inline void __syncthreads() {}
