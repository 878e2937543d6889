#include "netfs/fs_service.h"

#include "util/compress.h"

namespace psmr::netfs {

namespace {

// Plaintext bytes fs_key_fn decodes: the path's u32 length and up to 252
// bytes of path.  A longer path costs a full decode.
constexpr std::size_t kKeyPrefix = 256;

// Every result but read's and readdir's fits in this many bytes (lstat's,
// the largest, is 45).
constexpr std::size_t kFixedResultBytes = 48;

}  // namespace

util::Buffer encode_path_mode(const std::string& path, std::uint32_t mode) {
  util::Writer w;
  w.str(path);
  w.u32(mode);
  return w.take();
}

util::Buffer encode_path(const std::string& path) {
  util::Writer w;
  w.str(path);
  return w.take();
}

util::Buffer encode_fh(std::uint64_t fh) {
  util::Writer w;
  w.str("");  // keep field order uniform: path first (empty for fh ops)
  w.u64(fh);
  return w.take();
}

util::Buffer encode_utimens(const std::string& path, std::int64_t atime_ns,
                            std::int64_t mtime_ns) {
  util::Writer w;
  w.str(path);
  w.i64(atime_ns);
  w.i64(mtime_ns);
  return w.take();
}

util::Buffer encode_access(const std::string& path, std::uint32_t mask) {
  util::Writer w;
  w.str(path);
  w.u32(mask);
  return w.take();
}

util::Buffer encode_read(const std::string& path, std::uint64_t offset,
                         std::uint32_t size) {
  util::Writer w;
  w.str(path);
  w.u64(offset);
  w.u32(size);
  return w.take();
}

util::Buffer encode_write(const std::string& path, std::uint64_t offset,
                          std::span<const std::uint8_t> data) {
  util::Writer w;
  w.str(path);
  w.u64(offset);
  w.bytes(data);
  return w.take();
}

util::Buffer pack_params(const util::Buffer& plain) {
  return util::lz_compress(plain);
}

std::optional<util::Buffer> unpack_params(std::span<const std::uint8_t> packed) {
  return util::lz_decompress(packed);
}

FsResult decode_result(smr::CommandId cmd, const util::Buffer& payload) {
  FsResult res;
  auto plain = util::lz_decompress(payload);
  if (!plain) {
    res.err = -EIO;
    return res;
  }
  util::Reader r(*plain);
  res.err = static_cast<int>(r.i64());
  // Error responses carry no payload worth parsing (and the generic -EIO
  // response carries none at all).
  if (res.err != 0) return res;
  switch (cmd) {
    case kFsOpen:
    case kFsOpendir:
      res.fh = r.u64();
      break;
    case kFsLstat:
      res.stat.is_dir = r.boolean();
      res.stat.mode = r.u32();
      res.stat.size = r.u64();
      res.stat.atime_ns = r.i64();
      res.stat.mtime_ns = r.i64();
      res.stat.inode = r.u64();
      break;
    case kFsRead:
      res.data = r.bytes();
      break;
    case kFsReaddir: {
      std::uint32_t n = r.u32();
      res.names.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) res.names.push_back(r.str());
      break;
    }
    default:
      break;
  }
  return res;
}

// Every command decodes all of its parameters before it touches fs_, so a
// plaintext too short for its command changes nothing and is answered with
// -EIO, like a block that does not decompress.
util::Buffer FsService::execute(const smr::Command& cmd) try {
  util::Writer out;
  // Read reserves its exact size once its data length is known.
  if (cmd.cmd != kFsRead) out.reserve(kFixedResultBytes);
  auto plain = unpack_params(cmd.params);
  if (!plain) {
    out.i64(-EIO);
    return util::lz_compress(out.view());
  }
  util::Reader r(*plain);
  switch (cmd.cmd) {
    case kFsCreate:
    case kFsMknod: {
      std::string path = r.str();
      out.i64(fs_.create(path, r.u32()));
      break;
    }
    case kFsMkdir: {
      std::string path = r.str();
      out.i64(fs_.mkdir(path, r.u32()));
      break;
    }
    case kFsUnlink:
      out.i64(fs_.unlink(r.str()));
      break;
    case kFsRmdir:
      out.i64(fs_.rmdir(r.str()));
      break;
    case kFsOpen: {
      std::uint64_t fh = 0;
      out.i64(fs_.open(r.str(), fh));
      out.u64(fh);
      break;
    }
    case kFsOpendir: {
      std::uint64_t fh = 0;
      out.i64(fs_.opendir(r.str(), fh));
      out.u64(fh);
      break;
    }
    case kFsRelease: {
      r.str();  // empty path placeholder
      out.i64(fs_.release(r.u64()));
      break;
    }
    case kFsReleasedir: {
      r.str();
      out.i64(fs_.releasedir(r.u64()));
      break;
    }
    case kFsUtimens: {
      std::string path = r.str();
      std::int64_t at = r.i64();
      std::int64_t mt = r.i64();
      out.i64(fs_.utimens(path, at, mt));
      break;
    }
    case kFsAccess: {
      std::string path = r.str();
      out.i64(fs_.access(path, r.u32()));
      break;
    }
    case kFsLstat: {
      FsStat st;
      int err = fs_.lstat(r.str(), st);
      out.i64(err);
      out.boolean(st.is_dir);
      out.u32(st.mode);
      out.u64(st.size);
      out.i64(st.atime_ns);
      out.i64(st.mtime_ns);
      out.u64(st.inode);
      break;
    }
    case kFsRead: {
      std::string path = r.str();
      std::uint64_t offset = r.u64();
      std::uint32_t size = r.u32();
      util::Buffer data;
      const int err = fs_.read(path, offset, size, data);
      out.reserve(8 + 4 + data.size());
      out.i64(err);
      out.bytes(data);
      break;
    }
    case kFsWrite: {
      std::string path = r.str();
      std::uint64_t offset = r.u64();
      auto data = r.bytes_view();
      out.i64(fs_.write(path, offset, data));
      break;
    }
    case kFsReaddir: {
      std::vector<std::string> names;
      out.i64(fs_.readdir(r.str(), names));
      out.u32(static_cast<std::uint32_t>(names.size()));
      for (const auto& n : names) out.str(n);
      break;
    }
    default:
      out.i64(-ENOSYS);
  }
  return util::lz_compress(out.view());
} catch (const util::DecodeError&) {
  util::Writer out;
  out.i64(-EIO);
  return util::lz_compress(out.view());
}

smr::CDep fs_cdep() {
  static constexpr smr::CommandId kStructural[] = {
      kFsCreate, kFsMknod,   kFsMkdir,   kFsUnlink,  kFsRmdir,
      kFsOpen,   kFsUtimens, kFsRelease, kFsOpendir, kFsReleasedir};
  static constexpr smr::CommandId kPerPath[] = {kFsAccess, kFsLstat, kFsRead,
                                                kFsWrite, kFsReaddir};
  smr::CDep dep;
  for (auto s : kStructural) {
    for (smr::CommandId c = kFsCreate; c <= kFsMaxCommand; ++c) {
      dep.always(s, c);
    }
  }
  for (auto a : kPerPath) {
    for (auto b : kPerPath) dep.same_key(a, b);
  }
  return dep;
}

smr::KeyFn fs_key_fn() {
  return [](const smr::Command& cmd) -> std::optional<std::uint64_t> {
    switch (cmd.cmd) {
      case kFsAccess:
      case kFsLstat:
      case kFsRead:
      case kFsWrite:
      case kFsReaddir: {
        auto plain = util::lz_decompress_prefix(cmd.params, kKeyPrefix);
        if (plain && plain->size() == kKeyPrefix &&
            util::Reader(*plain).u32() > kKeyPrefix - 4) {
          plain = unpack_params(cmd.params);  // the path runs past the prefix
        }
        if (!plain) return std::nullopt;
        util::Reader r(*plain);
        try {
          return path_key(normalize_path(r.str()));
        } catch (const util::DecodeError&) {
          return std::nullopt;  // too short to hold its path
        }
      }
      default:
        return std::nullopt;  // structural commands are global anyway
    }
  };
}

std::shared_ptr<const smr::CGFunction> fs_cg(std::size_t k) {
  return smr::from_cdep(fs_cdep(), k, fs_key_fn(), kFsMaxCommand);
}

}  // namespace psmr::netfs
