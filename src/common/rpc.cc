#include "common/rpc.h"

#include <utility>

namespace trap::common::rpc {

namespace {

// Version check shared by all three decoders. The "rpc" member is required
// on every envelope so a single stray frame from a newer protocol fails
// loudly instead of decoding as a half-empty message.
Status CheckVersion(const JsonValue& v) {
  const std::optional<std::int64_t> ver = v.IntAt("rpc");
  if (!ver.has_value() || *ver != kProtocolVersion) {
    return Status::InvalidArgument("rpc: version mismatch");
  }
  return Status::Ok();
}

// Wire name ("OK", "RESOURCE_EXHAUSTED", ...) -> StatusCode. An unknown name
// yields kInternal: a peer reporting a code this build does not know is an
// internal-consistency problem, not caller error.
StatusCode ParseStatusCode(std::string_view name) {
  for (int i = static_cast<int>(StatusCode::kOk);
       i <= static_cast<int>(StatusCode::kUnavailable); ++i) {
    const StatusCode code = static_cast<StatusCode>(i);
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace

std::string EncodeRequest(const Request& req) {
  JsonValue v = JsonValue::Object();
  v.Set("rpc", JsonValue::Number(kProtocolVersion));
  v.Set("id", JsonValue::Hex(req.id));
  v.Set("method", JsonValue::Str(req.method));
  if (req.params.kind != JsonValue::Kind::kNull) {
    v.Set("params", req.params);
  }
  return WriteJson(v);
}

std::string EncodeResponse(const Response& resp) {
  JsonValue v = JsonValue::Object();
  v.Set("rpc", JsonValue::Number(kProtocolVersion));
  v.Set("id", JsonValue::Hex(resp.id));
  v.Set("status", JsonValue::Str(StatusCodeName(resp.status)));
  if (!resp.message.empty()) {
    v.Set("message", JsonValue::Str(resp.message));
  }
  if (resp.result.kind != JsonValue::Kind::kNull) {
    v.Set("result", resp.result);
  }
  return WriteJson(v);
}

std::string EncodeHello(std::string_view role) {
  JsonValue v = JsonValue::Object();
  v.Set("rpc", JsonValue::Number(kProtocolVersion));
  v.Set("hello", JsonValue::Str(std::string(role)));
  return WriteJson(v);
}

StatusOr<Request> DecodeRequest(std::string_view payload) {
  StatusOr<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& v = *parsed;
  if (Status s = CheckVersion(v); !s.ok()) return s;
  const std::optional<std::uint64_t> id = v.HexAt("id");
  std::optional<std::string> method = v.StringAt("method");
  if (!id.has_value() || !method.has_value() || method->empty()) {
    return Status::InvalidArgument("rpc: request missing id/method");
  }
  Request req;
  req.id = *id;
  req.method = *std::move(method);
  if (const JsonValue* params = v.Find("params"); params != nullptr) {
    req.params = *params;
  }
  return req;
}

StatusOr<Response> DecodeResponse(std::string_view payload) {
  StatusOr<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& v = *parsed;
  if (Status s = CheckVersion(v); !s.ok()) return s;
  const std::optional<std::uint64_t> id = v.HexAt("id");
  const std::optional<std::string> status = v.StringAt("status");
  if (!id.has_value() || !status.has_value()) {
    return Status::InvalidArgument("rpc: response missing id/status");
  }
  Response resp;
  resp.id = *id;
  resp.status = ParseStatusCode(*status);
  if (std::optional<std::string> msg = v.StringAt("message");
      msg.has_value()) {
    resp.message = *std::move(msg);
  }
  if (const JsonValue* result = v.Find("result"); result != nullptr) {
    resp.result = *result;
  }
  return resp;
}

Status CheckHello(std::string_view payload, std::string_view want_role) {
  StatusOr<JsonValue> parsed = ParseJson(payload);
  if (!parsed.ok()) return parsed.status();
  if (Status s = CheckVersion(*parsed); !s.ok()) return s;
  const std::optional<std::string> role = parsed->StringAt("hello");
  if (!role.has_value()) {
    return Status::InvalidArgument("rpc: not a hello frame");
  }
  if (*role != want_role) {
    return Status::InvalidArgument("rpc: unexpected peer role '" + *role +
                                   "'");
  }
  return Status::Ok();
}

Response OkResponse(std::uint64_t id, JsonValue result) {
  Response resp;
  resp.id = id;
  resp.status = StatusCode::kOk;
  resp.result = std::move(result);
  return resp;
}

Response ErrorResponse(std::uint64_t id, const Status& status) {
  Response resp;
  resp.id = id;
  resp.status = status.code();
  resp.message = status.message();
  return resp;
}

}  // namespace trap::common::rpc
