#include "common/frame.h"

#include <cstdio>
#include <cstring>

namespace trap::common {

namespace {

constexpr char kMagic[] = "TRAPF ";
constexpr std::size_t kMagicLen = sizeof(kMagic) - 1;
// Longest legal header: magic + digits of kMaxFramePayload + '\n'.
constexpr std::size_t kMaxHeader = kMagicLen + 20 + 1;

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  char header[kMaxHeader + 1];
  int n = std::snprintf(header, sizeof header, "TRAPF %zu\n", payload.size());
  std::string out;
  out.reserve(static_cast<std::size_t>(n) + payload.size());
  out.append(header, static_cast<std::size_t>(n));
  out.append(payload.data(), payload.size());
  return out;
}

void FrameDecoder::Append(const char* data, std::size_t n) {
  if (malformed_) return;  // sticky; no point buffering a corrupt stream
  buf_.append(data, n);
}

FrameDecoder::Result FrameDecoder::Next(std::string* payload,
                                        std::string* error) {
  auto fail = [&](const char* why) {
    malformed_ = true;
    malformed_error_ = why;
    if (error != nullptr) *error = why;
    return Result::kMalformed;
  };
  if (malformed_) {
    if (error != nullptr) *error = malformed_error_;
    return Result::kMalformed;
  }
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
    return Result::kNeedMore;
  }
  const std::size_t avail = buf_.size() - pos_;
  // Reject a bad magic as soon as enough bytes exist to rule it out.
  const std::size_t check = avail < kMagicLen ? avail : kMagicLen;
  if (std::memcmp(buf_.data() + pos_, kMagic, check) != 0) {
    return fail("frame magic mismatch");
  }
  const std::size_t nl = buf_.find('\n', pos_);
  if (nl == std::string::npos) {
    if (avail > kMaxHeader) return fail("frame header overlong");
    return Result::kNeedMore;
  }
  if (nl - pos_ <= kMagicLen) return fail("frame header missing length");
  std::size_t len = 0;
  for (std::size_t i = pos_ + kMagicLen; i < nl; ++i) {
    const char c = buf_[i];
    if (c < '0' || c > '9') return fail("frame length not numeric");
    len = len * 10 + static_cast<std::size_t>(c - '0');
    if (len > kMaxFramePayload) return fail("frame length exceeds maximum");
  }
  const std::size_t body = nl + 1;
  if (buf_.size() - body < len) return Result::kNeedMore;
  payload->assign(buf_, body, len);
  pos_ = body + len;
  // Compact once the consumed prefix dominates, so a long-lived stream does
  // not grow its buffer without bound.
  if (pos_ > (std::size_t{1} << 16) && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return Result::kFrame;
}

}  // namespace trap::common
