#ifndef TRAP_COMMON_FRAME_H_
#define TRAP_COMMON_FRAME_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace trap::common {

// Length-prefixed frame codec for the serve runtime's sockets: each frame is
//
//   "TRAPF <decimal payload length>\n<payload bytes>"
//
// The explicit magic + decimal header keeps frames greppable in a captured
// stream and makes garbage trivially detectable: anything that does not
// start with the magic, carries a non-numeric or oversized length, or ends
// before the declared payload is classified as malformed/truncated rather
// than silently resynchronized. A transport that can be corrupted must fail
// loudly -- the server answers a malformed frame with an error and closes
// that connection.

// Upper bound on a single payload; a longer declared length is malformed.
inline constexpr std::size_t kMaxFramePayload = std::size_t{16} << 20;

std::string EncodeFrame(std::string_view payload);

// Incremental decoder for nonblocking reads: feed bytes with Append, drain
// complete frames with Next. Malformed input is sticky -- once a stream is
// corrupt there is no trustworthy resynchronization point.
class FrameDecoder {
 public:
  enum class Result {
    kFrame,      // *payload holds the next complete frame
    kNeedMore,   // no complete frame buffered yet
    kMalformed,  // the stream is corrupt; *error says why
  };

  void Append(const char* data, std::size_t n);
  Result Next(std::string* payload, std::string* error);

  // Bytes buffered but not yet consumed by Next.
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool malformed_ = false;
  std::string malformed_error_;
};

}  // namespace trap::common

#endif  // TRAP_COMMON_FRAME_H_
