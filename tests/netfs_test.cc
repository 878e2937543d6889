#include <gtest/gtest.h>

#include "netfs/fs.h"
#include "netfs/fs_service.h"
#include "netfs/path.h"

namespace psmr::netfs {
namespace {

TEST(Path, Normalization) {
  EXPECT_EQ(normalize_path("/a/b"), "/a/b");
  EXPECT_EQ(normalize_path("a/b"), "/a/b");
  EXPECT_EQ(normalize_path("//a///b/"), "/a/b");
  EXPECT_EQ(normalize_path("/"), "/");
  EXPECT_EQ(normalize_path(""), "/");
}

TEST(Path, SplitParentBase) {
  EXPECT_EQ(split_path("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_path("/").empty());
  EXPECT_EQ(parent_path("/a/b"), "/a");
  EXPECT_EQ(parent_path("/a"), "/");
  EXPECT_EQ(base_name("/a/b"), "b");
}

TEST(Path, GroupAssignmentStableAndBalanced) {
  constexpr std::size_t k = 8;
  std::array<int, k> counts{};
  for (int i = 0; i < 8000; ++i) {
    std::string p = "/dir/file" + std::to_string(i);
    auto g = path_group(p, k);
    EXPECT_EQ(g, path_group(p, k));  // deterministic
    counts[g]++;
  }
  for (int c : counts) EXPECT_NEAR(c, 1000, 300);
}

TEST(MemFs, CreateStatUnlink) {
  MemFs fs;
  EXPECT_EQ(fs.create("/f", 0644), 0);
  EXPECT_EQ(fs.create("/f", 0644), -EEXIST);
  FsStat st;
  EXPECT_EQ(fs.lstat("/f", st), 0);
  EXPECT_FALSE(st.is_dir);
  EXPECT_EQ(st.mode, 0644u);
  EXPECT_EQ(st.size, 0u);
  EXPECT_EQ(fs.unlink("/f"), 0);
  EXPECT_EQ(fs.lstat("/f", st), -ENOENT);
  EXPECT_EQ(fs.unlink("/f"), -ENOENT);
}

TEST(MemFs, DirectoryLifecycle) {
  MemFs fs;
  EXPECT_EQ(fs.mkdir("/d", 0755), 0);
  EXPECT_EQ(fs.mkdir("/d", 0755), -EEXIST);
  EXPECT_EQ(fs.create("/d/f", 0644), 0);
  EXPECT_EQ(fs.rmdir("/d"), -ENOTEMPTY);
  std::vector<std::string> names;
  EXPECT_EQ(fs.readdir("/d", names), 0);
  EXPECT_EQ(names, std::vector<std::string>{"f"});
  EXPECT_EQ(fs.unlink("/d/f"), 0);
  EXPECT_EQ(fs.rmdir("/d"), 0);
  EXPECT_EQ(fs.rmdir("/d"), -ENOENT);
}

TEST(MemFs, NestedPathsRequireExistingParents) {
  MemFs fs;
  EXPECT_EQ(fs.create("/a/b/c", 0644), -ENOENT);
  EXPECT_EQ(fs.mkdir("/a", 0755), 0);
  EXPECT_EQ(fs.mkdir("/a/b", 0755), 0);
  EXPECT_EQ(fs.create("/a/b/c", 0644), 0);
  EXPECT_EQ(fs.unlink("/a/b"), -EISDIR);
  EXPECT_EQ(fs.rmdir("/a/b/c"), -ENOTDIR);
}

TEST(MemFs, ReadWriteRoundTrip) {
  MemFs fs;
  ASSERT_EQ(fs.create("/f", 0644), 0);
  util::Buffer data = {1, 2, 3, 4, 5};
  EXPECT_EQ(fs.write("/f", 0, data), 0);
  util::Buffer out;
  EXPECT_EQ(fs.read("/f", 0, 5, out), 0);
  EXPECT_EQ(out, data);
  // Sparse write extends with zeros.
  EXPECT_EQ(fs.write("/f", 10, data), 0);
  EXPECT_EQ(fs.read("/f", 0, 100, out), 0);
  ASSERT_EQ(out.size(), 15u);
  EXPECT_EQ(out[7], 0);
  EXPECT_EQ(out[10], 1);
  // Read past EOF is empty, not an error.
  EXPECT_EQ(fs.read("/f", 100, 10, out), 0);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(fs.read("/missing", 0, 1, out), -ENOENT);
}

TEST(MemFs, DescriptorTable) {
  MemFs fs;
  ASSERT_EQ(fs.create("/f", 0644), 0);
  std::uint64_t fh1 = 0, fh2 = 0;
  EXPECT_EQ(fs.open("/f", fh1), 0);
  EXPECT_EQ(fs.open("/f", fh2), 0);
  EXPECT_NE(fh1, fh2);
  EXPECT_EQ(fs.open_count(), 2u);
  EXPECT_EQ(fs.release(fh1), 0);
  EXPECT_EQ(fs.release(fh1), -EBADF);
  std::uint64_t dh = 0;
  EXPECT_EQ(fs.opendir("/", dh), 0);
  EXPECT_EQ(fs.releasedir(dh), 0);
  EXPECT_EQ(fs.open("/missing", fh1), -ENOENT);
  EXPECT_EQ(fs.opendir("/f", dh), -ENOTDIR);
}

TEST(MemFs, UtimensAndAccess) {
  MemFs fs;
  ASSERT_EQ(fs.create("/f", 0600), 0);
  EXPECT_EQ(fs.utimens("/f", 111, 222), 0);
  FsStat st;
  ASSERT_EQ(fs.lstat("/f", st), 0);
  EXPECT_EQ(st.atime_ns, 111);
  EXPECT_EQ(st.mtime_ns, 222);
  EXPECT_EQ(fs.access("/f", 6), 0);   // rw
  EXPECT_EQ(fs.access("/f", 1), -EACCES);  // x not set
  EXPECT_EQ(fs.access("/nope", 4), -ENOENT);
}

TEST(MemFs, DigestTracksStateIncludingFdTable) {
  MemFs a, b;
  EXPECT_EQ(a.digest(), b.digest());
  a.create("/f", 0644);
  EXPECT_NE(a.digest(), b.digest());
  b.create("/f", 0644);
  EXPECT_EQ(a.digest(), b.digest());
  std::uint64_t fh;
  a.open("/f", fh);
  EXPECT_NE(a.digest(), b.digest());  // fd table is replicated state
  b.open("/f", fh);
  EXPECT_EQ(a.digest(), b.digest());
}

// --- Service-level marshaling (with compression) ---

smr::Command make_cmd(smr::CommandId id, util::Buffer plain) {
  smr::Command c;
  c.cmd = id;
  c.client = 1;
  c.seq = 1;
  c.params = pack_params(plain);
  return c;
}

TEST(FsService, ExecutesThroughCompressedEnvelope) {
  FsService svc;
  auto res = decode_result(
      kFsMkdir, svc.execute(make_cmd(kFsMkdir, encode_path_mode("/d", 0755))));
  EXPECT_EQ(res.err, 0);
  res = decode_result(kFsCreate, svc.execute(make_cmd(
                                     kFsCreate,
                                     encode_path_mode("/d/f", 0644))));
  EXPECT_EQ(res.err, 0);
  util::Buffer payload(1024, 0xab);
  res = decode_result(
      kFsWrite,
      svc.execute(make_cmd(kFsWrite, encode_write("/d/f", 0, payload))));
  EXPECT_EQ(res.err, 0);
  res = decode_result(
      kFsRead, svc.execute(make_cmd(kFsRead, encode_read("/d/f", 0, 1024))));
  EXPECT_EQ(res.err, 0);
  EXPECT_EQ(res.data, payload);
  res = decode_result(kFsReaddir,
                      svc.execute(make_cmd(kFsReaddir, encode_path("/d"))));
  EXPECT_EQ(res.err, 0);
  EXPECT_EQ(res.names, std::vector<std::string>{"f"});
  res = decode_result(kFsLstat,
                      svc.execute(make_cmd(kFsLstat, encode_path("/d/f"))));
  EXPECT_EQ(res.err, 0);
  EXPECT_EQ(res.stat.size, 1024u);
}

TEST(FsService, OpenReleaseThroughService) {
  FsService svc;
  svc.execute(make_cmd(kFsCreate, encode_path_mode("/f", 0644)));
  auto res = decode_result(kFsOpen,
                           svc.execute(make_cmd(kFsOpen, encode_path("/f"))));
  EXPECT_EQ(res.err, 0);
  EXPECT_GT(res.fh, 0u);
  res = decode_result(kFsRelease,
                      svc.execute(make_cmd(kFsRelease, encode_fh(res.fh))));
  EXPECT_EQ(res.err, 0);
}

TEST(FsService, RejectsCorruptParams) {
  FsService svc;
  smr::Command c;
  c.cmd = kFsRead;
  c.params = util::Buffer{0xff, 0xff};  // not a valid LZ block
  auto res = decode_result(kFsRead, svc.execute(c));
  EXPECT_EQ(res.err, -EIO);
}

// --- C-Dep / C-G metadata ---

TEST(FsCdep, MatchesPaperSectionVB) {
  auto dep = fs_cdep();
  auto key = fs_key_fn();
  auto rd_a = make_cmd(kFsRead, encode_read("/a", 0, 10));
  auto rd_a2 = make_cmd(kFsRead, encode_read("/a", 5, 10));
  auto wr_a = make_cmd(kFsWrite, encode_write("/a", 0, util::Buffer{1}));
  auto wr_b = make_cmd(kFsWrite, encode_write("/b", 0, util::Buffer{1}));
  auto creat = make_cmd(kFsCreate, encode_path_mode("/c", 0644));
  auto open_cmd = make_cmd(kFsOpen, encode_path("/a"));

  // Structural commands depend on everything.
  EXPECT_TRUE(dep.conflicts(creat, rd_a, key));
  EXPECT_TRUE(dep.conflicts(open_cmd, wr_b, key));
  EXPECT_TRUE(dep.conflicts(creat, open_cmd, key));
  // Same-path data commands depend on each other (even read-read: the
  // paper's NetFS serializes all same-file accesses).
  EXPECT_TRUE(dep.conflicts(rd_a, wr_a, key));
  EXPECT_TRUE(dep.conflicts(rd_a, rd_a2, key));
  // Different paths are independent.
  EXPECT_FALSE(dep.conflicts(wr_a, wr_b, key));
  EXPECT_FALSE(dep.conflicts(rd_a, wr_b, key));
}

// The key the scheduler derived before it decoded only a prefix: the whole
// parameter block decompressed, then the path read from it.
std::optional<std::uint64_t> full_decode_key(const smr::Command& c) {
  auto plain = unpack_params(c.params);
  if (!plain) return std::nullopt;
  util::Reader r(*plain);
  return path_key(normalize_path(r.str()));
}

TEST(FsKeyFn, PrefixDecodeGivesTheFullDecodeKeyForEveryPathLength) {
  auto key = fs_key_fn();
  util::Buffer text(1024);
  util::Buffer same(1024, 0xab);
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<std::uint8_t>("the quick brown fox "[i % 20]);
  }
  // The key function decodes 256 plaintext bytes: a u32 length and up to
  // 252 bytes of path.  Cover paths well inside, at and past that window.
  for (std::size_t len : {1, 2, 30, 200, 251, 252, 253, 254, 256, 300, 1000,
                          3000}) {
    std::string path = "/";
    for (std::size_t i = 1; i < len; ++i) {
      path.push_back(i % 17 == 0 ? '/' : static_cast<char>('a' + i % 26));
    }
    for (const auto& c :
         {make_cmd(kFsWrite, encode_write(path, 0, text)),
          make_cmd(kFsWrite, encode_write(path, 7, same)),
          make_cmd(kFsRead, encode_read(path, 0, 1024)),
          make_cmd(kFsLstat, encode_path(path)),
          make_cmd(kFsAccess, encode_access(path, 4))}) {
      auto want = full_decode_key(c);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(*want, path_key(normalize_path(path)));
      EXPECT_EQ(key(c), want) << "path length " << len << " cmd " << c.cmd;
    }
  }
}

TEST(FsKeyFn, DamageAfterThePathKeepsThePathKey) {
  // A header claiming one byte more than the stream holds fails the full
  // decode, but only after the path: the key stays the path's (the
  // documented behaviour of fs_key_fn), and execute() answers -EIO.
  auto key = fs_key_fn();
  util::Buffer data(1024, 0x5a);
  util::Buffer block = pack_params(encode_write("/dir/file", 0, data));
  block[0] = static_cast<std::uint8_t>(block[0] + 1);  // raw size + 1
  smr::Command c;
  c.cmd = kFsWrite;
  c.params = block;
  EXPECT_FALSE(unpack_params(c.params).has_value());
  EXPECT_EQ(key(c), path_key("/dir/file"));
  FsService svc;
  EXPECT_EQ(decode_result(kFsWrite, svc.execute(c)).err, -EIO);

  // Damage inside the path's own sequence still yields the spread group.
  c.params = util::Buffer(block.begin(), block.begin() + 8);
  EXPECT_EQ(key(c), std::nullopt);
}

TEST(FsCg, NineGroupLayout) {
  auto cg = fs_cg(8);
  // Structural → all 8 worker groups (routed via the shared ring: the
  // paper's ninth, serialized group).
  auto creat = make_cmd(kFsCreate, encode_path_mode("/c", 0644));
  EXPECT_EQ(cg->groups(creat), multicast::GroupSet::all(8));
  auto rel = make_cmd(kFsRelease, encode_fh(3));
  EXPECT_EQ(cg->groups(rel), multicast::GroupSet::all(8));
  // Per-path → a single group, stable per path.
  auto rd = make_cmd(kFsRead, encode_read("/data/x", 0, 10));
  auto wr = make_cmd(kFsWrite, encode_write("/data/x", 0, util::Buffer{1}));
  EXPECT_TRUE(cg->groups(rd).singleton());
  EXPECT_EQ(cg->groups(rd), cg->groups(wr));
}

}  // namespace
}  // namespace psmr::netfs
