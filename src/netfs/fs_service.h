// NetFS service binding: command ids, wire schemas, compression pipeline,
// C-Dep and C-G (paper Sections V-B and VI-C).
//
// Wire format: every request's parameter block and every response payload is
// compressed with the LZ codec ("a request is compressed by the client and
// uncompressed by the worker thread that executes the request, which after
// executing the command compresses the response"; the paper uses lz4 and
// explains Figure 8's read-vs-write latency gap by compression being slower
// than decompression).
//
// C-Dep (verbatim from Section V-B): create, mknod, mkdir, unlink, rmdir,
// open, utimens, release, opendir, releasedir depend on ALL calls; access,
// lstat, read, write, readdir depend on all calls above and on each other
// when they use the same file path.
#pragma once

#include <memory>

#include "netfs/fs.h"
#include "smr/cdep.h"
#include "smr/cg.h"
#include "smr/service.h"

namespace psmr::netfs {

enum FsCommand : smr::CommandId {
  // Structural / descriptor-table commands (serialized against everything).
  kFsCreate = 1,
  kFsMknod = 2,
  kFsMkdir = 3,
  kFsUnlink = 4,
  kFsRmdir = 5,
  kFsOpen = 6,
  kFsUtimens = 7,
  kFsRelease = 8,
  kFsOpendir = 9,
  kFsReleasedir = 10,
  // Per-path commands (parallel across different paths).
  kFsAccess = 11,
  kFsLstat = 12,
  kFsRead = 13,
  kFsWrite = 14,
  kFsReaddir = 15,
};

inline constexpr smr::CommandId kFsMaxCommand = kFsReaddir;

/// A decoded NetFS response: negative errno or 0, plus op-specific payload.
struct FsResult {
  int err = 0;
  std::uint64_t fh = 0;        // open/opendir
  FsStat stat;                 // lstat
  util::Buffer data;           // read
  std::vector<std::string> names;  // readdir
};

// Request encoders (plaintext; compress with pack_params before sending).
util::Buffer encode_path_mode(const std::string& path, std::uint32_t mode);
util::Buffer encode_path(const std::string& path);
util::Buffer encode_fh(std::uint64_t fh);
util::Buffer encode_utimens(const std::string& path, std::int64_t atime_ns,
                            std::int64_t mtime_ns);
util::Buffer encode_access(const std::string& path, std::uint32_t mask);
util::Buffer encode_read(const std::string& path, std::uint64_t offset,
                         std::uint32_t size);
util::Buffer encode_write(const std::string& path, std::uint64_t offset,
                          std::span<const std::uint8_t> data);

/// Compresses a plaintext parameter block (client side).
util::Buffer pack_params(const util::Buffer& plain);
/// Decompresses a parameter block (worker side); nullopt if corrupt.
std::optional<util::Buffer> unpack_params(std::span<const std::uint8_t> packed);

/// Decodes a (compressed) response payload for the given command.
FsResult decode_result(smr::CommandId cmd, const util::Buffer& payload);

/// The replicated NetFS state machine.  Handles decompression, dispatch
/// into MemFs, and response compression.  A single-command service: mount
/// it on the batch-first replica stack with smr::make_batched(), which
/// executes batches one command at a time in delivery order.
class FsService : public smr::SequentialService {
 public:
  FsService() = default;

  util::Buffer execute(const smr::Command& cmd) override;
  [[nodiscard]] std::uint64_t state_digest() const override {
    return fs_.digest();
  }
  [[nodiscard]] bool snapshot_to(util::Writer& w) const override {
    fs_.snapshot_to(w);
    return true;
  }
  [[nodiscard]] bool restore_from(util::Reader& r) override {
    return fs_.restore_from(r);
  }
  [[nodiscard]] const MemFs& fs() const { return fs_; }

 private:
  MemFs fs_;
};

/// The paper's NetFS C-Dep.
smr::CDep fs_cdep();

/// Conflict key: normalized-path hash for per-path commands, nullopt for
/// structural ones.  Decompresses the leading bytes of the parameter block
/// to reach the path — the cost a central scheduler pays in sP-SMR — and
/// decodes the whole block only when the path runs past that prefix.
///
/// For every block that decompresses, the key is that of its path.  A
/// malformed block, or a plaintext too short to hold its path, yields
/// nullopt (the spread group) if the damage lies in or before the path;
/// damage only after the path still yields the path's key.  Routing stays deterministic either way, since clients and every
/// replica run this same function, and execute() answers such a block
/// with -EIO.
smr::KeyFn fs_key_fn();

/// Path-partitioned C-G: per-path commands → group(path); structural
/// commands → all groups (the paper's "nine groups" layout for k = 8).
std::shared_ptr<const smr::CGFunction> fs_cg(std::size_t k);

}  // namespace psmr::netfs
