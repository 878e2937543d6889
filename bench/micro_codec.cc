// Micro-benchmarks for the message codec path, in two parts:
//
//  1. Byte-kernel timing on 1 KB blocks: LZ compress and decompress, the
//     bounded prefix decode NetFS's C-G key uses, and the CRC32 every
//     multicast batch carries.  The printed compress_vs_decompress ratio is
//     the live codec's cost asymmetry; it must stay above 1, since the paper
//     explains Figure 8's read-vs-write latency difference by compression
//     being the slower side.
//
//  2. Allocation metering for the zero-copy buffer pool — the acceptance
//     measurement of the pooled-message-buffer PR.  Two legs push the same
//     command stream through the submit→order→deliver codec chain:
//
//       * "buffer" leg: the seed's per-hop util::Buffer copies (encode,
//         submit-frame pack, coordinator unpack, batch seal, learner
//         unpack, command decode) — one or more heap allocations per hop;
//       * "pooled" leg: the live code path (Command::encode_into the Bus's
//         submit spool, the coordinator's frame decode into subviews,
//         paxos::Batch encode/decode, Command::decode) — zero-copy
//         subviews over recycled pool blocks.
//
//     Heap traffic is counted by the util/alloc_hook operator-new hook
//     (defined by bench_common.h) and reported as allocs-per-command,
//     written with --json to BENCH_alloc.json and gated in CI
//     (pooled <= 0.1, buffer >= 3).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "multicast/amcast.h"
#include "paxos/types.h"
#include "smr/command.h"
#include "util/buffer_pool.h"
#include "util/bytes.h"
#include "util/clock.h"
#include "util/compress.h"
#include "util/hash.h"
#include "util/rng.h"

using namespace psmr;
using namespace psmr::bench;

namespace {

constexpr std::size_t kSpoolCommands = multicast::SubmitCaps{}.max_commands;

util::Buffer make_payload(std::size_t n, double entropy) {
  // entropy in [0,1]: 0 = all zeros, 1 = random bytes.
  util::SplitMix64 rng(7);
  util::Buffer out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(rng.chance(entropy)
                      ? static_cast<std::uint8_t>(rng.next())
                      : static_cast<std::uint8_t>('a' + i % 7));
  }
  return out;
}

smr::Command make_command(std::uint64_t seq) {
  smr::Command c;
  c.cmd = 1;
  c.client = 1;
  c.seq = seq;
  c.reply_to = 7;
  c.groups = multicast::GroupSet::single(0);
  util::Writer w;
  w.u64(seq * 2654435761u);  // an 8-byte key, like the KV point commands
  c.params = w.take();
  return c;
}

// --- Leg 1: the seed's Buffer-per-hop chain. -------------------------------
//
// Reconstructs what every command paid before the pool existed: each hop
// re-marshals or copies the bytes into a fresh heap vector.  The chain
// mirrors submit → SUBMIT_MANY pack → coordinator unpack → batch seal →
// learner unpack → command decode.
std::uint64_t run_buffer_leg(const std::vector<smr::Command>& cmds,
                             std::uint64_t* checksum) {
  util::allochook::AllocWindow window;
  for (std::size_t base = 0; base < cmds.size(); base += kSpoolCommands) {
    std::size_t n = std::min(kSpoolCommands, cmds.size() - base);
    // Client: encode each command into its own Buffer, pack a SUBMIT_MANY.
    util::Writer frame_w;
    frame_w.u32(static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) {
      util::Buffer enc = cmds[base + i].encode();
      frame_w.bytes(enc);
    }
    util::Buffer frame = frame_w.take();
    // Coordinator: unpack into per-command pending Buffers, seal a batch.
    util::Reader fr(frame);
    std::uint32_t count = fr.u32();
    util::Writer batch_w;
    batch_w.u8(0);
    batch_w.u32(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      util::Buffer pending = fr.bytes();  // copy, as the seed did
      batch_w.bytes(pending);
    }
    batch_w.u32(util::Crc32::of(batch_w.view()));
    util::Buffer decide = batch_w.take();
    // Learner: unpack the batch into per-command Buffers and decode.
    util::Reader br(std::span<const std::uint8_t>(decide.data(),
                                                  decide.size() - 4));
    br.u8();
    std::uint32_t delivered = br.u32();
    for (std::uint32_t i = 0; i < delivered; ++i) {
      util::Buffer cmd_bytes = br.bytes();  // copy, as the seed did
      util::Reader cr(cmd_bytes);
      cr.u16();
      cr.u64();
      *checksum += cr.u64();      // seq
      cr.u32();
      cr.u64();
      util::Buffer params = cr.bytes();  // seed Command::decode copied params
      *checksum += params.size();
    }
  }
  return window.count();
}

// --- Leg 2: the live pooled zero-copy chain. -------------------------------
std::uint64_t run_pooled_leg(const std::vector<smr::Command>& cmds,
                             std::uint64_t* checksum) {
  util::allochook::AllocWindow window;
  std::vector<util::Payload> pending;  // capacity survives iterations
  pending.reserve(kSpoolCommands);
  // Client: the Bus's submit spool at its default caps; its sink hands each
  // flushed SUBMIT_MANY frame to the coordinator step below.
  util::Payload frame;
  bool many = false;
  multicast::SubmitCoalescer spool(
      kSpoolCommands, multicast::SubmitCaps{}.max_bytes,
      multicast::SubmitCoalescer::kNoAgeBound,
      [&](transport::NodeId, std::size_t, util::Payload message, bool m) {
        frame = std::move(message);
        many = m;
        return true;
      });
  for (std::size_t i = 0; i < cmds.size(); ++i) {
    const smr::Command& c = cmds[i];
    spool.append(0, 0, c.encoded_size(),
                 [&c](util::PayloadWriter& w) { c.encode_into(w); },
                 /*flush=*/i + 1 == cmds.size());
    if (frame.empty()) continue;
    // Coordinator: pending commands are subviews of the frame.
    pending.clear();
    if (many) {
      transport::decode_frame(frame, [&](std::span<const std::uint8_t> cmd) {
        pending.push_back(frame.subview_of(cmd));
      });
    } else {
      pending.push_back(frame);
    }
    frame = {};
    paxos::Batch batch;
    batch.skip = false;
    batch.commands = std::move(pending);
    util::Payload decide = batch.encode();
    pending = std::move(batch.commands);  // reclaim the vector's capacity
    // Learner: decoded commands are subviews of the decide frame.
    auto delivered = paxos::Batch::decode(decide);
    for (const auto& msg : delivered->commands) {
      auto c = smr::Command::decode(msg);
      *checksum += c->seq + c->params.size();
    }
  }
  return window.count();
}

void run_alloc_bench(const Options& opt, std::FILE* json) {
  const std::uint64_t commands = opt.quick ? 64 * 1024 : 512 * 1024;
  std::vector<smr::Command> cmds;
  cmds.reserve(commands);
  for (std::uint64_t i = 0; i < commands; ++i) cmds.push_back(make_command(i));

  // Warm the pool (and the free-list vectors) so the measured pooled leg
  // sees the steady state a long-running deployment runs in.
  std::uint64_t checksum = 0;
  run_pooled_leg(cmds, &checksum);

  std::uint64_t pooled = run_pooled_leg(cmds, &checksum);
  std::uint64_t buffered = run_buffer_leg(cmds, &checksum);
  auto pool = util::BufferPool::global().stats();

  const double per_cmd_pooled =
      static_cast<double>(pooled) / static_cast<double>(commands);
  const double per_cmd_buffer =
      static_cast<double>(buffered) / static_cast<double>(commands);
  const bool hook = util::allochook::kAllocHookActive;
  std::printf("alloc metering (%s): buffer chain %.2f allocs/cmd, pooled "
              "chain %.4f allocs/cmd (%" PRIu64 " cmds, checksum %" PRIu64
              ")\n",
              hook ? "hook active" : "hook inert under sanitizer",
              per_cmd_buffer, per_cmd_pooled, commands, checksum);
  std::printf("pool: %" PRIu64 " hits, %" PRIu64 " misses, %" PRIu64
              " recycled, %lld outstanding\n",
              pool.hits, pool.misses, pool.recycled,
              static_cast<long long>(pool.outstanding));

  if (json == nullptr) return;
  std::fprintf(json, "  \"alloc\": {\n");
  std::fprintf(json, "    \"hook_active\": %s,\n", hook ? "true" : "false");
  std::fprintf(json, "    \"commands\": %" PRIu64 ",\n", commands);
  std::fprintf(json, "    \"spool_commands\": %zu,\n", kSpoolCommands);
  std::fprintf(json, "    \"buffer_allocs_per_cmd\": %.3f,\n", per_cmd_buffer);
  std::fprintf(json, "    \"pooled_allocs_per_cmd\": %.4f,\n", per_cmd_pooled);
  std::fprintf(json, "    \"reduction\": %.1f,\n",
               per_cmd_pooled > 0 ? per_cmd_buffer / per_cmd_pooled : 0.0);
  std::fprintf(json,
               "    \"pool\": {\"hits\": %" PRIu64 ", \"misses\": %" PRIu64
               ", \"oversize\": %" PRIu64 ", \"recycled\": %" PRIu64
               ", \"dropped\": %" PRIu64 ", \"outstanding\": %lld}\n",
               pool.hits, pool.misses, pool.oversize, pool.recycled,
               pool.dropped, static_cast<long long>(pool.outstanding));
  std::fprintf(json, "  },\n");
}

double time_ns_per_op(std::uint64_t iters, const std::function<void()>& op) {
  const std::int64_t t0 = util::now_us();
  for (std::uint64_t i = 0; i < iters; ++i) op();
  const std::int64_t t1 = util::now_us();
  return static_cast<double>(t1 - t0) * 1e3 / static_cast<double>(iters);
}

void run_codec_bench(const Options& opt, std::FILE* json) {
  const std::uint64_t iters = opt.quick ? 2'000 : 20'000;
  util::Buffer p1k = make_payload(1024, 0.3);
  util::Buffer c1k = util::lz_compress(p1k);
  util::Buffer p64k = make_payload(64 * 1024, 0.3);
  util::Buffer rnd1k = make_payload(1024, 1.0);

  std::size_t sink = 0;
  double compress_1k = time_ns_per_op(
      iters, [&] { sink += util::lz_compress(p1k).size(); });
  double decompress_1k = time_ns_per_op(
      iters, [&] { sink += util::lz_decompress(c1k)->size(); });
  double compress_64k = time_ns_per_op(
      iters / 10, [&] { sink += util::lz_compress(p64k).size(); });
  double compress_rnd = time_ns_per_op(
      iters, [&] { sink += util::lz_compress(rnd1k).size(); });
  // The NetFS key function's decode: the first 256 bytes of a 1 KB block.
  double prefix_1k = time_ns_per_op(
      iters, [&] { sink += util::lz_decompress_prefix(c1k, 256)->size(); });
  double crc_1k = time_ns_per_op(iters * 10,
                                 [&] { sink += util::Crc32::of(p1k); });
  volatile std::size_t keep = sink;  // keep the timed work observable
  (void)keep;

  std::printf("codec: compress1K %.0fns  decompress1K %.0fns (%.2fx)  "
              "compress64K %.0fns  incompressible1K %.0fns  "
              "prefix256of1K %.0fns  crc32_1K %.0fns\n",
              compress_1k, decompress_1k,
              decompress_1k > 0 ? compress_1k / decompress_1k : 0,
              compress_64k, compress_rnd, prefix_1k, crc_1k);
  if (json == nullptr) return;
  std::fprintf(json, "  \"codec\": {\n");
  std::fprintf(json, "    \"compress_1k_ns\": %.1f,\n", compress_1k);
  std::fprintf(json, "    \"decompress_1k_ns\": %.1f,\n", decompress_1k);
  std::fprintf(json, "    \"compress_vs_decompress\": %.2f,\n",
               decompress_1k > 0 ? compress_1k / decompress_1k : 0.0);
  std::fprintf(json, "    \"compress_64k_ns\": %.1f,\n", compress_64k);
  std::fprintf(json, "    \"compress_incompressible_1k_ns\": %.1f,\n",
               compress_rnd);
  std::fprintf(json, "    \"decompress_prefix_256_of_1k_ns\": %.1f,\n",
               prefix_1k);
  std::fprintf(json, "    \"crc32_1k_ns\": %.1f\n", crc_1k);
  std::fprintf(json, "  }\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Options::parse(argc, argv);
  std::FILE* json = nullptr;
  if (!opt.json.empty()) {
    json = std::fopen(opt.json.c_str(), "w");
    if (!json) {
      std::fprintf(stderr, "micro_codec: cannot open %s\n", opt.json.c_str());
      return 1;
    }
    std::fprintf(json, "{\n  \"bench\": \"micro_codec\",\n");
  }
  run_alloc_bench(opt, json);
  run_codec_bench(opt, json);
  if (json) {
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::fprintf(stderr, "micro_codec: wrote %s\n", opt.json.c_str());
  }
  return 0;
}
