// The serve request/reply protocol: length-prefixed binary frames.
//
// Frame layout (little-endian):
//   u32 magic 'SCP1' | u16 opcode | u16 flags (0) | u32 payload_len | payload
//
// Request opcodes:
//   kPing          payload echoed back verbatim (liveness / framing probe)
//   kScreenExact   the threshold screen of core/validation.h: per-pattern
//                  violation verdicts from an event simulation of each
//                  pattern
//   kScapProfile   exact per-pattern ScapReports (the Fig 2/6 bulk profile)
//   kFaultGrade    first-detect fault grading of the pattern set against the
//                  design's (optionally sampled) collapsed fault list
//   kStats         server-side counter snapshot as KvDoc text
// Opcode 2 is retired (it was a static-bound screen) and answers kUnknownOp.
//
// Reply opcodes: kOk (op-specific payload below), kBusy (admission queue
// full -- empty payload, retry later), kError (u32 code + str32 message).
//
// Compute requests carry the design as a serialized ref::Scenario recipe
// (KvDoc text): the daemon materializes and caches the design by the
// canonical content hash of its design-determining fields, so the recipe
// doubles as the cache key and makes every journal record self-contained --
// replaying a journal rebuilds the exact design and must reproduce the
// response bytes bit-identically (responses are pure per-pattern functions;
// batching composition never changes them).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "atpg/pattern.h"
#include "serve/wire.h"
#include "sim/scap.h"

namespace scap::serve {

enum class Op : std::uint16_t {
  kPing = 1,
  kScreenExact = 3,
  kScapProfile = 4,
  kFaultGrade = 5,
  kStats = 6,

  kOk = 128,
  kBusy = 129,
  kError = 130,
};

const char* op_name(Op op);

/// Ops whose requests go through the admission queue / batcher (and the
/// journal); ping and stats are answered inline by the connection reader.
inline bool is_compute_op(Op op) {
  return op == Op::kScreenExact || op == Op::kScapProfile ||
         op == Op::kFaultGrade;
}

enum class ErrCode : std::uint32_t {
  kBadFrame = 1,    ///< unparsable frame (bad magic / truncated / oversized)
  kBadRequest = 2,  ///< well-framed but semantically invalid payload
  kUnknownOp = 3,
  kOversized = 4,
  kDesignError = 5,  ///< design recipe failed to parse or materialize
  kInternal = 6,
};

/// One decoded request. For kPing the echo payload rides in `blob`; compute
/// ops use the remaining fields (threshold_mw / hot_block only matter to the
/// screen, profiling and fault grading ignore them).
struct Request {
  Op op = Op::kPing;
  std::uint32_t hot_block = 0;
  double threshold_mw = 0.0;
  std::string design;  ///< serialized ref::Scenario recipe (KvDoc text)
  std::uint32_t num_vars = 0;
  std::vector<Pattern> patterns;
  std::vector<std::uint8_t> blob;  ///< kPing echo payload
};

struct Reply {
  Op op = Op::kOk;
  std::vector<std::uint8_t> payload;
};

// --- request payload -------------------------------------------------------

/// Compute-request payload: u32 hot_block | f64 threshold_mw | str32 design |
/// u32 num_patterns | u32 num_vars | packed pattern bits (LSB-first,
/// ceil(num_vars/8) bytes per pattern).
std::vector<std::uint8_t> encode_request(const Request& req);

/// Decode a request payload for `op`. Returns false (with a message in *err)
/// on any malformed input -- including a design recipe that is not parseable
/// KvDoc text, so admitted requests are always journalable; never throws,
/// never over-reads.
bool decode_request(Op op, std::span<const std::uint8_t> payload, Request* out,
                    std::string* err);

// --- reply payloads --------------------------------------------------------

Reply make_error(ErrCode code, std::string_view msg);
/// Decode an error payload (returns false if itself malformed).
bool decode_error(std::span<const std::uint8_t> payload, ErrCode* code,
                  std::string* msg);

/// screen_exact reply: u32 n | n verdict bytes (1 = violates).
struct ExactScreenReply {
  std::vector<std::uint8_t> violates;  ///< exact per-pattern verdicts
};
Reply encode_exact_reply(const ExactScreenReply& r);
bool decode_exact_reply(std::span<const std::uint8_t> payload,
                        ExactScreenReply* out);

Reply encode_profile_reply(std::span<const ScapReport> reports);
bool decode_profile_reply(std::span<const std::uint8_t> payload,
                          std::vector<ScapReport>* out);

/// first_detect: per fault, first detecting pattern index
/// (FaultSimulator::kUndetected maps to u64 max on the wire).
Reply encode_grade_reply(std::span<const std::size_t> first_detect);
bool decode_grade_reply(std::span<const std::uint8_t> payload,
                        std::vector<std::size_t>* out);

// --- pattern bit packing ---------------------------------------------------

/// Bytes per packed pattern row.
inline std::size_t pattern_stride(std::size_t num_vars) {
  return (num_vars + 7) / 8;
}
/// LSB-first bit packing of fully specified patterns (s1 values 0/1).
std::vector<std::uint8_t> pack_patterns(std::span<const Pattern> patterns,
                                        std::size_t num_vars);
std::vector<Pattern> unpack_patterns(std::span<const std::uint8_t> bytes,
                                     std::size_t n, std::size_t num_vars);

// --- frame I/O over a connected socket -------------------------------------

enum class ReadStatus {
  kOk,
  kEof,        ///< orderly close before a header byte
  kBadMagic,   ///< header present but not a SCP1 frame
  kOversized,  ///< declared payload length above kMaxPayload
  kTruncated,  ///< connection died mid-frame
  kIoError,
};

/// Blocking read of one full frame. On kOk fills *op and *payload.
ReadStatus read_frame(int fd, Op* op, std::vector<std::uint8_t>* payload);

/// Blocking write of one frame (MSG_NOSIGNAL; a dead peer is a false return,
/// never a SIGPIPE). Thread-safe per-fd only under the caller's lock.
bool write_frame(int fd, Op op, std::span<const std::uint8_t> payload);

}  // namespace scap::serve
