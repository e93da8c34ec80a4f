#include "sim/batch_sim.h"

#include <cassert>
#include <cstring>
#include <stdexcept>

#define SCAP_BATCH_KERNEL_NS generic
#include "sim/batch_kernels.inl"
#undef SCAP_BATCH_KERNEL_NS

namespace scap {

#if defined(SCAP_HAVE_AVX2_KERNELS)
namespace batchk {
// Defined in batch_sim_avx2.cpp (compiled with -mavx2); call only after a
// runtime __builtin_cpu_supports("avx2") check.
void sweep_avx2_w1(const LevelizedView& v, std::uint64_t* vals);
void sweep_avx2_w2(const LevelizedView& v, std::uint64_t* vals);
void sweep_avx2_w4(const LevelizedView& v, std::uint64_t* vals);
}  // namespace batchk
#endif

namespace {

bool host_has_avx2() {
#if defined(SCAP_HAVE_AVX2_KERNELS)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

BatchSim::BatchSim(std::shared_ptr<const LevelizedView> view, std::size_t words)
    : view_(std::move(view)), words_(words) {
  if (!view_) throw std::invalid_argument("BatchSim: null view");
  if (!valid_batch_words(words_)) {
    throw std::invalid_argument("BatchSim: words must be 1, 2 or 4");
  }
  avx2_ = host_has_avx2();
#if defined(SCAP_HAVE_AVX2_KERNELS)
  if (avx2_) {
    sweep_ = words_ == 1   ? &batchk::sweep_avx2_w1
             : words_ == 2 ? &batchk::sweep_avx2_w2
                           : &batchk::sweep_avx2_w4;
    return;
  }
#endif
  sweep_ = words_ == 1   ? &batchk::generic::sweep<1>
           : words_ == 2 ? &batchk::generic::sweep<2>
                         : &batchk::generic::sweep<4>;
}

void BatchSim::eval_frame(std::span<const std::uint64_t> flop_q,
                          std::span<const std::uint64_t> pi,
                          std::vector<std::uint64_t>& net_values) const {
  const LevelizedView& v = *view_;
  const std::size_t W = words_;
  if (flop_q.size() != v.num_flops() * W || pi.size() != v.num_pis() * W) {
    throw std::invalid_argument("BatchSim::eval_frame: input size mismatch");
  }
  net_values.assign(v.num_nets() * W, 0);
  // Compact flop Q ids are 0..num_flops(): the state vector is the frame's
  // leading slice.
  std::memcpy(net_values.data(), flop_q.data(),
              flop_q.size() * sizeof(std::uint64_t));
  const std::span<const NetId> pis = v.pi_nets();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    for (std::size_t w = 0; w < W; ++w) {
      net_values[static_cast<std::size_t>(pis[i]) * W + w] = pi[i * W + w];
    }
  }
  sweep_(v, net_values.data());
}

void BatchSim::next_state(std::span<const std::uint64_t> net_values,
                          std::vector<std::uint64_t>& next_q) const {
  const LevelizedView& v = *view_;
  const std::size_t W = words_;
  const NetId* fd = v.f_d();
  next_q.resize(v.num_flops() * W);
  for (FlopId f = 0; f < v.num_flops(); ++f) {
    for (std::size_t w = 0; w < W; ++w) {
      next_q[f * W + w] = net_values[static_cast<std::size_t>(fd[f]) * W + w];
    }
  }
}

void BatchSim::broadside(std::span<const std::uint64_t> s1,
                         std::span<const std::uint64_t> pi,
                         std::vector<std::uint64_t>& frame1_nets,
                         std::vector<std::uint64_t>& s2,
                         std::vector<std::uint64_t>& frame2_nets) const {
  eval_frame(s1, pi, frame1_nets);
  next_state(frame1_nets, s2);
  eval_frame(s2, pi, frame2_nets);
}

namespace {

/// 8x8 bit-matrix transpose (Hacker's Delight 7-3): input row r = byte r,
/// column c = bit c; output row c = byte c holding the old column c.
inline std::uint64_t transpose8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Pack the LSBs of 8 consecutive bytes into one byte (bit k = byte k's LSB).
inline std::uint64_t pack_lsbs(std::uint64_t bytes) {
  return ((bytes & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

}  // namespace

void transpose_pack(std::span<const std::uint8_t* const> rows,
                    std::size_t num_vars, std::size_t words,
                    std::vector<std::uint64_t>& out) {
  assert(valid_batch_words(words));
  assert(rows.size() <= words * 64);
  out.assign(num_vars * words, 0);
  const std::size_t var_octets = num_vars / 8;
  for (std::size_t w = 0; w * 64 < rows.size(); ++w) {
    const std::size_t base = w * 64;
    const std::size_t np = std::min<std::size_t>(64, rows.size() - base);
    std::size_t p = 0;
    for (; p + 8 <= np; p += 8) {
      const std::uint8_t* const* r = rows.data() + base + p;
      for (std::size_t vo = 0; vo < var_octets; ++vo) {
        // Tile (8 patterns x 8 vars): row j = 8 vars of pattern j, packed to
        // a byte; transpose turns byte k into 8 patterns of var 8*vo+k.
        std::uint64_t m = 0;
        for (std::size_t j = 0; j < 8; ++j) {
          std::uint64_t x;
          std::memcpy(&x, r[j] + vo * 8, 8);
          m |= pack_lsbs(x) << (8 * j);
        }
        m = transpose8(m);
        for (std::size_t k = 0; k < 8; ++k) {
          out[(vo * 8 + k) * words + w] |=
              ((m >> (8 * k)) & 0xFFull) << p;
        }
      }
      // Var tail (num_vars % 8): plain bit packing.
      for (std::size_t v = var_octets * 8; v < num_vars; ++v) {
        for (std::size_t j = 0; j < 8; ++j) {
          out[v * words + w] |=
              static_cast<std::uint64_t>(r[j][v] & 1) << (p + j);
        }
      }
    }
    // Pattern tail (np % 8): plain bit packing.
    for (; p < np; ++p) {
      const std::uint8_t* row = rows[base + p];
      for (std::size_t v = 0; v < num_vars; ++v) {
        out[v * words + w] |= static_cast<std::uint64_t>(row[v] & 1) << p;
      }
    }
  }
}

}  // namespace scap
