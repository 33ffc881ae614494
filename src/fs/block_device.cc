#include "src/fs/block_device.h"

#include <cstring>

#include "src/base/logging.h"

namespace fsys {

RamDisk::RamDisk(uint32_t num_blocks, mk::Process* process, hw::Gva heap_base)
    : num_blocks_(num_blocks),
      process_(process),
      heap_base_(heap_base),
      data_(static_cast<size_t>(num_blocks) * kBlockSize, 0) {}

sb::Status RamDisk::Read(hw::Core* core, uint32_t block, std::span<uint8_t> out) {
  if (block >= num_blocks_ || out.size() != kBlockSize) {
    return sb::OutOfRange("bad block read");
  }
  ++reads_;
  if (core != nullptr && heap_base_ != 0) {
    // Cost-model traffic; never fails the functional I/O.
    (void)core->TouchData(heap_base_ + static_cast<uint64_t>(block) * kBlockSize, kBlockSize,
                          /*write=*/false);
  }
  std::memcpy(out.data(), data_.data() + static_cast<size_t>(block) * kBlockSize, kBlockSize);
  return sb::OkStatus();
}

sb::Status RamDisk::Write(hw::Core* core, uint32_t block, std::span<const uint8_t> in) {
  if (block >= num_blocks_ || in.size() != kBlockSize) {
    return sb::OutOfRange("bad block write");
  }
  ++writes_;
  if (core != nullptr && heap_base_ != 0) {
    (void)core->TouchData(heap_base_ + static_cast<uint64_t>(block) * kBlockSize, kBlockSize,
                          /*write=*/true);
  }
  std::memcpy(data_.data() + static_cast<size_t>(block) * kBlockSize, in.data(), kBlockSize);
  return sb::OkStatus();
}

mk::Handler RamDisk::MakeHandler() {
  return [this](mk::CallEnv& env) -> mk::Message {
    const mk::Message& req = env.request;
    const std::span<const uint8_t> p = req.payload();
    switch (req.tag) {
      case kBlockRead: {
        if (p.size() < 4) {
          return mk::Message(0);
        }
        uint32_t block = 0;
        std::memcpy(&block, p.data(), 4);
        // In-place reply: read the block straight into the connection's
        // shared-buffer slice so the bridge skips the reply copy. (The block
        // number was decoded above; overwriting the request is fine.)
        if (env.reply_buffer.size() >= kBlockSize) {
          const std::span<uint8_t> out(env.reply_buffer.data(), kBlockSize);
          if (!Read(&env.core, block, out).ok()) {
            return mk::Message(0);
          }
          return mk::Message::Borrowed(1, out);
        }
        mk::Message reply(1);
        reply.data.resize(kBlockSize);
        if (!Read(&env.core, block, reply.data).ok()) {
          return mk::Message(0);
        }
        return reply;
      }
      case kBlockWrite: {
        if (p.size() < 4 + kBlockSize) {
          return mk::Message(0);
        }
        uint32_t block = 0;
        std::memcpy(&block, p.data(), 4);
        if (!Write(&env.core, block, p.subspan(4, kBlockSize)).ok()) {
          return mk::Message(0);
        }
        return mk::Message(1);
      }
      case kBlockSizeQuery:
        return mk::Message(num_blocks_);
      default:
        return mk::Message(0);
    }
  };
}

mk::Message EncodeBlockRead(uint32_t block) {
  mk::Message msg(kBlockRead);
  msg.data.resize(4);
  std::memcpy(msg.data.data(), &block, 4);
  return msg;
}

mk::Message EncodeBlockWrite(uint32_t block, std::span<const uint8_t> data) {
  SB_CHECK(data.size() == kBlockSize);
  mk::Message msg(kBlockWrite);
  const auto* block_bytes = reinterpret_cast<const uint8_t*>(&block);
  msg.data.reserve(4 + kBlockSize);
  msg.data.insert(msg.data.end(), block_bytes, block_bytes + 4);
  msg.data.insert(msg.data.end(), data.begin(), data.end());
  return msg;
}

sb::Status TransportReadBlock(const BlockTransport& transport, uint32_t block,
                              std::span<uint8_t> out) {
  SB_CHECK(out.size() == kBlockSize);
  SB_ASSIGN_OR_RETURN(const mk::Message reply, transport(EncodeBlockRead(block)));
  if (reply.tag != 1 || reply.size() != kBlockSize) {
    return sb::Internal("block read failed");
  }
  std::memcpy(out.data(), reply.payload().data(), kBlockSize);
  return sb::OkStatus();
}

sb::Status TransportWriteBlock(const BlockTransport& transport, uint32_t block,
                               std::span<const uint8_t> in) {
  SB_ASSIGN_OR_RETURN(const mk::Message reply, transport(EncodeBlockWrite(block, in)));
  if (reply.tag != 1) {
    return sb::Internal("block write failed");
  }
  return sb::OkStatus();
}

}  // namespace fsys
