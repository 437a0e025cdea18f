// api::wire — the versioned line-oriented wire protocol of the envelope.
//
// Every AnyRequest and every Result<AnyResponse> (success payloads of all
// five kinds *and* diagnostics-carrying failures) encodes to a plain-text
// *frame*: a header line carrying the protocol version, `key value...` body
// lines, and a terminating `end` line. Frames follow the `variants v1`
// textio discipline — versioned header, one fact per line, strings quoted
// with backslash escapes, declaration order preserved — so a recorded
// request log is diffable, hand-editable, and replayable byte for byte.
//
//   request v1 simulate
//   target "fig2"
//   priority high
//   seed 7
//   resolution random
//   end
//
//   response v1 ok simulate
//   model "fig2"
//   total-firings 42
//   ...
//   end
//
// Round-trip contract: decode(encode(x)) reproduces every field of x
// bit-identically (doubles travel as shortest-round-trip decimals via
// std::to_chars), so a spivar_serve client observes exactly the results an
// in-process session would return. Decoding never throws: malformed input,
// unknown keys, and version mismatches come back as failed Results whose
// diagnostics carry the offending 1-based line number (diag::kWireError).
//
// Each wire type's body layout is listed once, in its describe() in
// wire.cpp: the one description both writes a frame and reads it back, so
// adding a field is one line there.
//
// The service front end (tools/spivar_serve) speaks three more one-purpose
// frames on top of the envelope pair: `control v1 <command> ...` for session
// management (load/unload/stats/shutdown), `hello v1 <tenant>` binding a
// connection to a tenant, and `info v1` carrying a control reply's rendered
// text. A batch is n request frames: each v2 frame carries its own priority,
// deadline and id.
//
// Version 2 adds *pipelining*: a v2 request header carries a client-chosen
// frame id and its reply echoes it, so a server may stream replies out of
// arrival order the moment each evaluation completes:
//
//   request v2 simulate 17          response v2 17 ok simulate
//   target "fig2"                   model "fig2"
//   end                             ...
//                                   end
//
// Bodies are identical across versions; only the header line differs. The
// decoders accept both versions, v1 frames simply have no frame id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/requests.hpp"
#include "api/responses.hpp"
#include "api/result.hpp"

namespace spivar::api::wire {

/// Protocol version stamped into strictly-ordered frame headers; the
/// highest version every decoder accepts is kVersionPipelined.
inline constexpr int kVersion = 1;
/// Pipelined protocol version: request headers carry a client-chosen frame
/// id, response headers echo it, replies may arrive out of order.
inline constexpr int kVersionPipelined = 2;

// --- envelope frames ---------------------------------------------------------

/// `request v1 <kind>` frame for one envelope: target spec, scheduling
/// options, and every non-default payload field.
[[nodiscard]] std::string encode(const AnyRequest& request);

/// `request v2 <kind> <id>` — the pipelined header; the reply to this frame
/// echoes `frame_id`, so it may be correlated out of arrival order.
[[nodiscard]] std::string encode(const AnyRequest& request, std::uint64_t frame_id);

/// `response v1 ok <kind>` / `response v1 error` frame for one evaluation
/// result, diagnostics (failure lists and success notes) included.
[[nodiscard]] std::string encode(const Result<AnyResponse>& result);

/// `response v2 <id> ok <kind>` / `response v2 <id> error` — the pipelined
/// reply, tagged with the request's frame id.
[[nodiscard]] std::string encode(const Result<AnyResponse>& result, std::uint64_t frame_id);

/// Parses one request frame (either version; a v2 header's frame id is
/// validated and skipped — peek it with peek_head). Malformed input
/// fails with diag::kWireError and a "line N: ..." message; omitted payload
/// keys keep their designated-initializer defaults, so hand-written frames
/// stay terse.
[[nodiscard]] Result<AnyRequest> decode_request(std::string_view frame);

/// Parses one response frame (either version) back into the Result an
/// in-process call would have returned. A transported error response
/// decodes as that failure; a malformed frame fails with diag::kWireError
/// (line-numbered).
[[nodiscard]] Result<AnyResponse> decode_response(std::string_view frame);

/// The frame id of a v2 response header (`response v2 <id> ...`), nullopt
/// for v1 responses or unreadable headers.
[[nodiscard]] std::optional<std::uint64_t> response_frame_id(std::string_view frame);

/// The pipelined reply `response v2 <frame_id> ...` made from `frame`, which
/// must be what encode(result) returned: byte-identical to
/// encode(result, frame_id), because only the header prefix differs between
/// the versions. This is how a server answers from a stored frame without
/// encoding the result again.
[[nodiscard]] std::string retag(std::string_view frame, std::uint64_t frame_id);

/// A frame's header line, tokenized once so a server can dispatch on it:
/// the frame tag (the first token; empty when the line does not tokenize or
/// starts with a quoted string) and the frame id of a `request v2 <kind>
/// <id>` header, nullopt for v1 frames or headers too malformed to carry one
/// (the id must be a plain u64). Body lines are not examined, so a frame
/// with a readable id but a rotten body still yields the id its error reply
/// should be tagged with.
struct FrameHead {
  std::string tag;
  std::optional<std::uint64_t> request_id;
};
[[nodiscard]] FrameHead peek_head(std::string_view frame);

// --- service frames ----------------------------------------------------------

/// Control frame: "control v1 <command> [quoted args...]\nend\n".
[[nodiscard]] std::string control_frame(std::string_view command,
                                        const std::vector<std::string>& args = {});

/// Command + decoded args of a control frame; nullopt when `frame` is not
/// a control frame of this version.
struct ControlCommand {
  std::string command;
  std::vector<std::string> args;
};
[[nodiscard]] std::optional<ControlCommand> parse_control(std::string_view frame);

/// `info v1` frame carrying a control reply's rendered text verbatim.
[[nodiscard]] std::string encode_info(std::string_view text);
[[nodiscard]] Result<std::string> decode_info(std::string_view frame);

/// Hello frame binding a connection to a tenant namespace:
/// "hello v1 <tenant> [token]\nend\n". Sent once, before any request; a
/// connection that never says hello stays in the default tenant and sees
/// exactly the pre-tenancy service (full v1/v2 compatibility).
[[nodiscard]] std::string hello_frame(std::string_view tenant, std::string_view token = {});

/// Tenant + optional token of a hello frame; nullopt when `frame` is not a
/// hello frame of this version.
struct HelloCommand {
  std::string tenant;
  std::string token;  ///< empty when the frame carried none
};
[[nodiscard]] std::optional<HelloCommand> parse_hello(std::string_view frame);

// --- stream utilities --------------------------------------------------------

/// A byte limit for read_frame. A frame's bytes are counted from its first
/// line, newlines included, as they are read, so one endless line is cut
/// off too.
struct FrameLimit {
  std::size_t max_bytes = 0;
  bool exceeded = false;  ///< the frame read last was over max_bytes
};

/// Reads the next frame from `in`: skips blank lines, then accumulates
/// lines through the terminating `end`, a line whose only token is `end` as
/// the decoders read it (every frame kind is `end`-terminated, so one
/// malformed frame consumes exactly one frame).
/// nullopt at EOF. The result includes the trailing newline and feeds
/// straight into the decoders. When `before_wait` is set, it runs every
/// time the next byte is not yet buffered in the stream, that is, before
/// each read that could block: a server uses it to send the replies it has
/// held back. With a `limit`, a frame over limit->max_bytes is read through
/// its `end` without being stored: the result is its header line alone
/// (empty when that line is over the limit itself) and limit->exceeded is
/// set. A line over the limit never ends a frame. Without one, a frame may
/// be any size.
[[nodiscard]] std::optional<std::string> read_frame(
    std::istream& in, const std::function<void()>& before_wait = {},
    FrameLimit* limit = nullptr);

/// Quotes `text` for a frame line: wraps in double quotes, escaping
/// backslash, quote, newline, carriage return and tab.
[[nodiscard]] std::string quote(std::string_view text);

}  // namespace spivar::api::wire
