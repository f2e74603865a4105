#ifndef TRAP_COMMON_RPC_H_
#define TRAP_COMMON_RPC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"

namespace trap::common::rpc {

// The versioned request/response envelope of the serve runtime's client
// sessions. Frames are length-prefixed (common/frame.*); the payload is a
// JSON object that always carries the protocol version under "rpc", so a
// peer built against a different protocol is rejected on the very first
// frame instead of misparsing fields. 64-bit ids ride as "0x..." strings
// (see JsonValue::HexAt).
//
//   request:  {"rpc":1,"id":"0x..","method":"...","params":{...}}
//   response: {"rpc":1,"id":"0x..","status":"OK","result":{...}}
//             {"rpc":1,"id":"0x..","status":"RESOURCE_EXHAUSTED",
//              "message":"...","result":{...}}
//   hello:    {"rpc":1,"hello":"<role>"}
//
// The hello frame is the handshake: the accepting side of a connection
// sends it first, the dialing side validates version and role before
// issuing requests. Decoders reject a missing or mismatched version with
// kInvalidArgument ("rpc: version mismatch") so peers can distinguish
// protocol skew from garbage.
inline constexpr int kProtocolVersion = 1;

struct Request {
  std::uint64_t id = 0;
  std::string method;
  JsonValue params;  // kObject or kNull
};

struct Response {
  std::uint64_t id = 0;
  StatusCode status = StatusCode::kOk;
  std::string message;  // populated when status != kOk
  JsonValue result;     // kObject or kNull

  bool ok() const { return status == StatusCode::kOk; }
};

std::string EncodeRequest(const Request& req);
std::string EncodeResponse(const Response& resp);
std::string EncodeHello(std::string_view role);

StatusOr<Request> DecodeRequest(std::string_view payload);
StatusOr<Response> DecodeResponse(std::string_view payload);
// Validates version + role of a hello payload.
Status CheckHello(std::string_view payload, std::string_view want_role);

// Response builders.
Response OkResponse(std::uint64_t id, JsonValue result);
Response ErrorResponse(std::uint64_t id, const Status& status);

}  // namespace trap::common::rpc

#endif  // TRAP_COMMON_RPC_H_
