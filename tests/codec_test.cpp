// The replication payload codec on its own: every decoder is a function over
// bytes, so hostile lengths and truncations are checked here without a
// pipeline or an applier around them.
#include "repl/codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace vrep {
namespace {

using Bytes = std::vector<std::uint8_t>;

// Round-trips `sample` and checks that every other payload length, shorter
// or longer, is rejected without touching the output.
template <typename M>
void expect_exact_length(const M& sample) {
  const auto bytes = repl::encode(sample);
  M decoded;
  ASSERT_TRUE(repl::decode(repl::Payload(bytes), &decoded));
  EXPECT_EQ(repl::encode(decoded), bytes) << "round trip changed the bytes";
  for (std::size_t len = 0; len <= bytes.size() + 8; ++len) {
    if (len == bytes.size()) continue;
    const Bytes payload(len, 0xA5);
    M out;
    EXPECT_FALSE(repl::decode(payload, &out)) << "length " << len << " of " << bytes.size();
    EXPECT_EQ(repl::encode(out), repl::encode(M{})) << "a rejected decode wrote its output";
  }
}

TEST(Codec, FixedLayoutsAcceptOnlyTheirOwnLength) {
  expect_exact_length(repl::Hello{4096, 7});
  expect_exact_length(repl::Heartbeat{9});
  expect_exact_length(repl::Ack{11});
  expect_exact_length(repl::EpochFence{3});
  expect_exact_length(repl::RejoinRequest{5, 2, 1});
  expect_exact_length(repl::RejoinDelta{5, 4});
  expect_exact_length(repl::CkptBegin{14, 65536, 0xDEADBEEF, 3});
  expect_exact_length(repl::CkptEnd{14, 0xDEADBEEF});
  expect_exact_length(repl::XDecide{0x1122334455667788, true});
}

TEST(Codec, ImageChunkNeedsItsOffset) {
  const Bytes image = {1, 2, 3, 4, 5};
  Bytes payload;
  repl::encode(repl::ImageChunk{40, image}, payload);
  ASSERT_EQ(payload.size(), 8u + image.size());
  repl::ImageChunk chunk;
  ASSERT_TRUE(repl::decode(payload, &chunk));
  EXPECT_EQ(chunk.off, 40u);
  EXPECT_EQ(Bytes(chunk.bytes.begin(), chunk.bytes.end()), image);
  for (std::size_t len = 0; len < 8; ++len) {
    EXPECT_FALSE(repl::decode(repl::Payload(payload.data(), len), &chunk)) << len;
  }
}

Bytes two_chunk_batch(std::uint64_t seq) {
  Bytes batch;
  repl::batch_begin(batch);
  const Bytes a = {0xA1, 0xA2, 0xA3};
  const Bytes b = {0xB1};
  repl::batch_append(batch, 8, a.data(), a.size());
  repl::batch_append(batch, 40, b.data(), b.size());
  repl::batch_stamp(batch, seq);
  return batch;
}

TEST(Codec, BatchValidRejectsEveryTruncationInsideAChunk) {
  const Bytes batch = two_chunk_batch(6);
  ASSERT_TRUE(repl::batch_valid(batch.data(), batch.size(), 64));
  EXPECT_EQ(repl::batch_seq(batch.data()), 6u);
  // A cut on a chunk boundary leaves a shorter well-formed batch (the empty
  // batch, 8 bytes, is what an aborted prepare leaves in the history).
  const std::size_t first_chunk_end = 8 + 8 + 3;
  for (std::size_t len = 0; len < batch.size(); ++len) {
    const bool boundary = len == repl::kBatchHeaderBytes || len == first_chunk_end;
    EXPECT_EQ(repl::batch_valid(batch.data(), len, 64), boundary) << "length " << len;
  }
  EXPECT_FALSE(repl::batch_valid(batch.data(), batch.size(), 40)) << "chunk past the database";

  repl::BatchReader reader(batch.data(), batch.size());
  repl::RedoChunk chunk;
  ASSERT_TRUE(reader.next(&chunk));
  EXPECT_EQ(chunk.db_off, 8u);
  EXPECT_EQ(chunk.len, 3u);
  EXPECT_EQ(chunk.data[0], 0xA1);
  ASSERT_TRUE(reader.next(&chunk));
  EXPECT_EQ(chunk.db_off, 40u);
  EXPECT_FALSE(reader.next(&chunk));
}

TEST(Codec, GroupValidRejectsEveryTruncation) {
  Bytes group;
  repl::group_begin(group, 2);
  repl::group_append(group, two_chunk_batch(6));
  repl::group_append(group, two_chunk_batch(7));
  ASSERT_TRUE(repl::group_valid(group.data(), group.size(), 64));
  for (std::size_t len = 0; len < group.size(); ++len) {
    EXPECT_FALSE(repl::group_valid(group.data(), len, 64)) << "length " << len;
  }

  repl::GroupReader reader(group.data(), group.size());
  EXPECT_EQ(reader.count(), 2u);
  const std::uint8_t* batch;
  std::size_t len;
  ASSERT_TRUE(reader.next(&batch, &len));
  EXPECT_EQ(repl::batch_seq(batch), 6u);
  ASSERT_TRUE(reader.next(&batch, &len));
  EXPECT_EQ(repl::batch_seq(batch), 7u);
  EXPECT_FALSE(reader.next(&batch, &len));

  Bytes gapped;
  repl::group_begin(gapped, 2);
  repl::group_append(gapped, two_chunk_batch(6));
  repl::group_append(gapped, two_chunk_batch(8));
  EXPECT_FALSE(repl::group_valid(gapped.data(), gapped.size(), 64))
      << "sequences must be contiguous";
}

TEST(Codec, PrepareCarriesAValidBatch) {
  const Bytes batch = two_chunk_batch(6);
  const Bytes payload = repl::encode(repl::XPrepare{0x1122334455667788, batch});
  repl::XPrepare prepare;
  ASSERT_TRUE(repl::decode(payload, 64, &prepare));
  EXPECT_EQ(prepare.xid, 0x1122334455667788u);
  EXPECT_EQ(Bytes(prepare.batch.begin(), prepare.batch.end()), batch);
  for (std::size_t len = 0; len < 8 + repl::kBatchHeaderBytes; ++len) {
    EXPECT_FALSE(repl::decode(repl::Payload(payload.data(), len), 64, &prepare)) << len;
  }
  EXPECT_FALSE(repl::decode(payload, 40, &prepare)) << "chunk past the database";
}

}  // namespace
}  // namespace vrep
