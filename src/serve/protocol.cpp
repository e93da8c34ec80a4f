#include "serve/protocol.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/kv.h"

namespace scap::serve {

namespace {

constexpr std::uint64_t kUndetectedWire =
    std::numeric_limits<std::uint64_t>::max();

bool fail(std::string* err, const char* why) {
  if (err) *err = why;
  return false;
}

}  // namespace

const char* op_name(Op op) {
  switch (op) {
    case Op::kPing:
      return "ping";
    case Op::kScreenExact:
      return "screen_exact";
    case Op::kScapProfile:
      return "scap_profile";
    case Op::kFaultGrade:
      return "fault_grade";
    case Op::kStats:
      return "stats";
    case Op::kOk:
      return "ok";
    case Op::kBusy:
      return "busy";
    case Op::kError:
      return "error";
  }
  return "?";
}

std::vector<std::uint8_t> pack_patterns(std::span<const Pattern> patterns,
                                        std::size_t num_vars) {
  const std::size_t stride = pattern_stride(num_vars);
  std::vector<std::uint8_t> out(patterns.size() * stride, 0);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const auto& s1 = patterns[p].s1;
    std::uint8_t* row = out.data() + p * stride;
    const std::size_t n = std::min(num_vars, s1.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (s1[i]) row[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
  }
  return out;
}

std::vector<Pattern> unpack_patterns(std::span<const std::uint8_t> bytes,
                                     std::size_t n, std::size_t num_vars) {
  const std::size_t stride = pattern_stride(num_vars);
  std::vector<Pattern> out(n);
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint8_t* row = bytes.data() + p * stride;
    out[p].s1.resize(num_vars);
    for (std::size_t i = 0; i < num_vars; ++i) {
      out[p].s1[i] = (row[i / 8] >> (i % 8)) & 1u;
    }
  }
  return out;
}

std::vector<std::uint8_t> encode_request(const Request& req) {
  if (req.op == Op::kPing || req.op == Op::kStats) return req.blob;
  WireWriter w;
  w.u32(req.hot_block);
  w.f64(req.threshold_mw);
  w.str32(req.design);
  w.u32(static_cast<std::uint32_t>(req.patterns.size()));
  w.u32(req.num_vars);
  w.bytes(pack_patterns(req.patterns, req.num_vars));
  return w.take();
}

bool decode_request(Op op, std::span<const std::uint8_t> payload, Request* out,
                    std::string* err) {
  out->op = op;
  if (op == Op::kPing || op == Op::kStats) {
    out->blob.assign(payload.begin(), payload.end());
    return true;
  }
  if (!is_compute_op(op)) return fail(err, "not a request opcode");
  WireReader r(payload);
  out->hot_block = r.u32();
  out->threshold_mw = r.f64();
  out->design = r.str32(kMaxDesignBytes);
  const std::uint32_t n = r.u32();
  out->num_vars = r.u32();
  if (!r.ok()) return fail(err, "truncated request header");
  if (out->design.empty()) return fail(err, "empty design recipe");
  // The design must be a well-formed KvDoc: everything downstream -- the
  // cache key, Scenario::parse, and above all the journal's "design."-prefix
  // flattening (which would otherwise throw inside the dispatcher) -- assumes
  // it parses. Reject malformed text here so it is never admitted.
  try {
    (void)util::KvDoc::parse(out->design);
  } catch (const std::exception& e) {
    if (err) *err = std::string("design recipe is not a KvDoc: ") + e.what();
    return false;
  }
  if (n > kMaxPatterns) return fail(err, "pattern count above limit");
  if (out->num_vars == 0 || out->num_vars > kMaxVars) {
    return fail(err, "bad num_vars");
  }
  // NaN thresholds would make every comparison silently false.
  if (std::isnan(out->threshold_mw)) return fail(err, "NaN threshold");
  const std::size_t stride = pattern_stride(out->num_vars);
  const auto bits = r.bytes(static_cast<std::size_t>(n) * stride);
  if (!r.ok()) return fail(err, "truncated pattern bits");
  if (!r.done()) return fail(err, "trailing bytes after pattern bits");
  out->patterns = unpack_patterns(bits, n, out->num_vars);
  return true;
}

Reply make_error(ErrCode code, std::string_view msg) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(code));
  w.str32(msg);
  return Reply{Op::kError, w.take()};
}

bool decode_error(std::span<const std::uint8_t> payload, ErrCode* code,
                  std::string* msg) {
  WireReader r(payload);
  const std::uint32_t c = r.u32();
  std::string m = r.str32(1u << 16);
  if (!r.done()) return false;
  *code = static_cast<ErrCode>(c);
  *msg = std::move(m);
  return true;
}

Reply encode_exact_reply(const ExactScreenReply& rep) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(rep.violates.size()));
  w.bytes(rep.violates);
  return Reply{Op::kOk, w.take()};
}

bool decode_exact_reply(std::span<const std::uint8_t> payload,
                        ExactScreenReply* out) {
  WireReader r(payload);
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxPatterns) return false;
  const auto v = r.bytes(n);
  if (!r.done()) return false;
  out->violates.assign(v.begin(), v.end());
  return true;
}

Reply encode_profile_reply(std::span<const ScapReport> reports) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(reports.size()));
  const std::size_t blocks =
      reports.empty() ? 0 : reports.front().vdd_energy_pj.size();
  w.u32(static_cast<std::uint32_t>(blocks));
  for (const ScapReport& rep : reports) {
    w.f64(rep.stw_ns);
    w.f64(rep.period_ns);
    w.u64(rep.num_toggles);
    w.f64(rep.vdd_energy_total_pj);
    w.f64(rep.vss_energy_total_pj);
    for (std::size_t b = 0; b < blocks; ++b) w.f64(rep.vdd_energy_pj[b]);
    for (std::size_t b = 0; b < blocks; ++b) w.f64(rep.vss_energy_pj[b]);
  }
  return Reply{Op::kOk, w.take()};
}

bool decode_profile_reply(std::span<const std::uint8_t> payload,
                          std::vector<ScapReport>* out) {
  WireReader r(payload);
  const std::uint32_t n = r.u32();
  const std::uint32_t blocks = r.u32();
  if (!r.ok() || n > kMaxPatterns || blocks > (1u << 16)) return false;
  out->assign(n, ScapReport{});
  for (ScapReport& rep : *out) {
    rep.stw_ns = r.f64();
    rep.period_ns = r.f64();
    rep.num_toggles = static_cast<std::size_t>(r.u64());
    rep.vdd_energy_total_pj = r.f64();
    rep.vss_energy_total_pj = r.f64();
    rep.vdd_energy_pj.resize(blocks);
    rep.vss_energy_pj.resize(blocks);
    for (auto& e : rep.vdd_energy_pj) e = r.f64();
    for (auto& e : rep.vss_energy_pj) e = r.f64();
  }
  return r.done();
}

Reply encode_grade_reply(std::span<const std::size_t> first_detect) {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(first_detect.size()));
  for (std::size_t v : first_detect) {
    w.u64(v == static_cast<std::size_t>(-1) ? kUndetectedWire
                                            : static_cast<std::uint64_t>(v));
  }
  return Reply{Op::kOk, w.take()};
}

bool decode_grade_reply(std::span<const std::uint8_t> payload,
                        std::vector<std::size_t>* out) {
  WireReader r(payload);
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > (1u << 24)) return false;
  out->assign(n, 0);
  for (auto& v : *out) {
    const std::uint64_t w = r.u64();
    v = w == kUndetectedWire ? static_cast<std::size_t>(-1)
                             : static_cast<std::size_t>(w);
  }
  return r.done();
}

namespace {

/// Full read of exactly n bytes; distinguishes EOF-before-anything from
/// EOF-mid-read via *got.
bool read_exact(int fd, std::uint8_t* dst, std::size_t n, std::size_t* got) {
  *got = 0;
  while (*got < n) {
    const ssize_t r = ::recv(fd, dst + *got, n - *got, 0);
    if (r == 0) return false;  // orderly EOF
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    *got += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

ReadStatus read_frame(int fd, Op* op, std::vector<std::uint8_t>* payload) {
  std::uint8_t hdr[kHeaderBytes];
  std::size_t got = 0;
  if (!read_exact(fd, hdr, sizeof hdr, &got)) {
    return got == 0 ? ReadStatus::kEof : ReadStatus::kTruncated;
  }
  WireReader r(std::span<const std::uint8_t>(hdr, sizeof hdr));
  const std::uint32_t magic = r.u32();
  const std::uint16_t opcode = r.u16();
  (void)r.u16();  // flags (reserved)
  const std::uint32_t len = r.u32();
  if (magic != kMagic) return ReadStatus::kBadMagic;
  if (len > kMaxPayload) return ReadStatus::kOversized;
  payload->resize(len);
  if (len > 0 && !read_exact(fd, payload->data(), len, &got)) {
    return ReadStatus::kTruncated;
  }
  *op = static_cast<Op>(opcode);
  return ReadStatus::kOk;
}

bool write_frame(int fd, Op op, std::span<const std::uint8_t> payload) {
  WireWriter w;
  w.u32(kMagic);
  w.u16(static_cast<std::uint16_t>(op));
  w.u16(0);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload);
  const std::vector<std::uint8_t>& buf = w.data();
  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace scap::serve
