// Typed NetFS client — the "file system proxy" of paper Section VI-C.
//
// In the paper, FUSE intercepts kernel calls and redirects them to a proxy
// shared by all clients on a node; here applications link the proxy
// directly (the replicated backend and the command set are identical).
// Requests are LZ-compressed before
// multicast and responses decompressed on receipt, matching the paper's
// pipeline.
#pragma once

#include <memory>

#include "netfs/fs_service.h"
#include "smr/client.h"

namespace psmr::netfs {

class FsClient {
 public:
  explicit FsClient(std::unique_ptr<smr::ClientProxy> proxy)
      : proxy_(std::move(proxy)) {}

  int create(const std::string& path, std::uint32_t mode = 0644) {
    return call(kFsCreate, encode_path_mode(path, mode)).err;
  }
  int mknod(const std::string& path, std::uint32_t mode = 0644) {
    return call(kFsMknod, encode_path_mode(path, mode)).err;
  }
  int mkdir(const std::string& path, std::uint32_t mode = 0755) {
    return call(kFsMkdir, encode_path_mode(path, mode)).err;
  }
  int unlink(const std::string& path) {
    return call(kFsUnlink, encode_path(path)).err;
  }
  int rmdir(const std::string& path) {
    return call(kFsRmdir, encode_path(path)).err;
  }
  /// Returns the descriptor through `fh`.
  int open(const std::string& path, std::uint64_t& fh) {
    auto res = call(kFsOpen, encode_path(path));
    fh = res.fh;
    return res.err;
  }
  int release(std::uint64_t fh) { return call(kFsRelease, encode_fh(fh)).err; }
  int opendir(const std::string& path, std::uint64_t& fh) {
    auto res = call(kFsOpendir, encode_path(path));
    fh = res.fh;
    return res.err;
  }
  int releasedir(std::uint64_t fh) {
    return call(kFsReleasedir, encode_fh(fh)).err;
  }
  int utimens(const std::string& path, std::int64_t atime_ns,
              std::int64_t mtime_ns) {
    return call(kFsUtimens, encode_utimens(path, atime_ns, mtime_ns)).err;
  }
  int access(const std::string& path, std::uint32_t mask) {
    return call(kFsAccess, encode_access(path, mask)).err;
  }
  int lstat(const std::string& path, FsStat& out) {
    auto res = call(kFsLstat, encode_path(path));
    out = res.stat;
    return res.err;
  }
  int read(const std::string& path, std::uint64_t offset, std::uint32_t size,
           util::Buffer& out) {
    auto res = call(kFsRead, encode_read(path, offset, size));
    out = std::move(res.data);
    return res.err;
  }
  int write(const std::string& path, std::uint64_t offset,
            std::span<const std::uint8_t> data) {
    return call(kFsWrite, encode_write(path, offset, data)).err;
  }
  int readdir(const std::string& path, std::vector<std::string>& names) {
    auto res = call(kFsReaddir, encode_path(path));
    names = std::move(res.names);
    return res.err;
  }

  [[nodiscard]] smr::ClientProxy& proxy() { return *proxy_; }

 private:
  FsResult call(smr::CommandId cmd, util::Buffer plain) {
    auto payload = proxy_->call(cmd, pack_params(plain));
    if (!payload) {
      FsResult res;
      res.err = -ETIMEDOUT;
      return res;
    }
    return decode_result(cmd, *payload);
  }

  std::unique_ptr<smr::ClientProxy> proxy_;
};

}  // namespace psmr::netfs
