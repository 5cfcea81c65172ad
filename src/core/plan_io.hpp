// Binary serialization of MpkPlan — the "offline preprocessing" the
// paper's methodology assumes (§IV-C: the split/reorder "can often be
// performed offline when storing the matrix data", §V-F: one-off cost).
//
// Format v10 (docs/ROBUSTNESS.md): little-endian native dump with a
// magic/version header, a CRC32 over the whole payload, and per-section
// length framing. Intended for same-architecture reload of a stored
// plan, not as an interchange format or an archive: a build reads
// exactly the version it writes, and a file of any other version must
// be regenerated (`fbmpk_cli plan`). save/load round-trips every
// run-relevant field (split triangles, diagonal, permutation, ABMC
// schedule, level schedules, options).
//
// Plan files are persistent artifacts and therefore untrusted input:
// deserialization bounds-checks every read, range-validates every
// enum and bool, and verifies the checksum before parsing, so a
// truncated or bit-flipped file always fails with a typed Error
// (ErrorCode::kCorruptPlan / kVersionMismatch) and never reaches
// undefined behavior.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/plan.hpp"

namespace fbmpk {

/// Serialize a built plan (format v10, checksummed).
void save_plan(const MpkPlan& plan, std::ostream& out);
void save_plan_file(const MpkPlan& plan, const std::string& path);

/// Reconstruct a plan. Throws fbmpk::Error with kCorruptPlan on bad
/// magic, checksum or framing violations, kVersionMismatch on any
/// version other than v10 or a foreign index width, kIo when the file
/// cannot be opened.
MpkPlan load_plan(std::istream& in);
MpkPlan load_plan_file(const std::string& path);

/// Non-throwing variants: the Error that load_plan would throw is
/// returned in the Expected instead, so ingestion pipelines can branch
/// on Expected::code() (e.g. retry kIo, regenerate on kVersionMismatch,
/// quarantine on kCorruptPlan) without exception plumbing.
Expected<MpkPlan> try_load_plan(std::istream& in);
Expected<MpkPlan> try_load_plan_file(const std::string& path);

/// Process-wide cap on the payload size load_plan will buffer, checked
/// against the header's claimed length *before* any allocation — a
/// corrupt length field fails typed (kResourceLimit over the cap,
/// kCorruptPlan past the structural plausibility bound) instead of
/// driving the process into bad_alloc/OOM. Default 64 GiB; serving
/// deployments lower it to their artifact budget. The file-based
/// loaders additionally reject any header whose claimed payload
/// disagrees with the actual file size before reading a single payload
/// byte.
void set_plan_payload_cap(std::uint64_t bytes);
std::uint64_t plan_payload_cap();

}  // namespace fbmpk
