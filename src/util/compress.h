// LZ77-style block compressor standing in for lz4 in the NetFS pipeline.
//
// The paper's NetFS compresses every request at the client and decompresses
// it at the executing worker thread, then compresses the response (lz4,
// Section VI-C); compression being slower than decompression is the paper's
// explanation for reads showing higher latency than writes in Figure 8.  This
// codec reproduces that code path and cost asymmetry: greedy hash matching
// on compress (a table probe per input byte), bulk copies on decompress.
//
// Format (LZ4-like sequences):
//   token byte: [4 bits literal run | 4 bits match length - kMinMatch],
//   value 15 in either nibble is extended by 255-continuation bytes;
//   literal bytes; 2-byte little-endian match offset (if a match follows).
// The final sequence is literals-only (match nibble 0 and no offset).
//
// Cost model: each kernel pays only for the bytes it processes.
//   * Compress keeps its 16384-slot match table per thread and reuses it:
//     each call stores positions above every value an earlier call stored,
//     so a slot from an earlier call reads as empty and no call clears the
//     table.  The output is byte-identical to clearing the table on every
//     call, for every input the 32-bit size header can describe.
//   * Decompress sizes its output once and copies literals and
//     non-overlapping matches in bulk.  An output above 64 KiB is allocated
//     only after a counting pass over the stream shows it produces that
//     many bytes, so a header claiming a huge raw size is rejected, not
//     allocated.
//   * lz_decompress_prefix decodes only the first bytes of a block, for a
//     caller that needs a leading field (NetFS reads a request's path).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "util/bytes.h"

namespace psmr::util {

/// Compresses `input` into a self-contained block (4-byte raw-size header +
/// sequence stream).  Always succeeds; incompressible data grows slightly.
Buffer lz_compress(std::span<const std::uint8_t> input);

/// Decompresses a block produced by lz_compress.
/// Returns std::nullopt if the block is malformed or truncated.
std::optional<Buffer> lz_decompress(std::span<const std::uint8_t> block);

/// Decodes only the first min(limit, raw size) bytes of `block`, stopping
/// there.  When lz_decompress(block) succeeds, the result is that many
/// leading bytes of its output.  With limit >= raw size it is
/// lz_decompress(block).  Below that it returns std::nullopt only if the
/// sequences it reads are malformed; it does not check the rest of the block.
std::optional<Buffer> lz_decompress_prefix(std::span<const std::uint8_t> block,
                                           std::size_t limit);

}  // namespace psmr::util
