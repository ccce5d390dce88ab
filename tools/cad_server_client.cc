// cad_server_client — command-line client and test driver for cad_server.
//
// Speaks the length-prefixed unix-socket protocol of src/server/protocol.h.
// One invocation performs one action:
//
//   cad_server_client --socket /tmp/cad.sock --ping
//   cad_server_client --socket /tmp/cad.sock --tenant alpha
//       --events events.txt --finish          # one line: open+stream+finish
//   cad_server_client --socket /tmp/cad.sock --stats [--tenant alpha]
//   cad_server_client --socket /tmp/cad.sock --report --tenant alpha
//   cad_server_client --socket /tmp/cad.sock --metrics
//   cad_server_client --socket /tmp/cad.sock --shutdown
//
// Streaming sends the event file in fixed-size batches. A kRejected reply
// (bounded-queue backpressure) is retried after --retry_ms — the client owns
// the retry, the server never drops silently — so replaying the same file
// always delivers every event exactly once, which is what makes the
// kill -9/resume byte-diff tests meaningful.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/strings.h"
#include "server/protocol.h"

namespace cad {
namespace {

using server::Frame;
using server::MessageType;
using server::WireEvent;

Result<int> Connect(const std::string& socket_path) {
  struct sockaddr_un addr;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError("cannot create unix socket (errno " +
                           std::to_string(errno) + ")");
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size());
  if (::connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("cannot connect to " + socket_path + " (errno " +
                           std::to_string(errno) + ")");
  }
  return fd;
}

/// One request/reply round trip.
Result<Frame> Call(int fd, MessageType type, const std::string& payload) {
  CAD_RETURN_NOT_OK(server::WriteFrame(fd, type, payload));
  std::optional<Frame> reply;
  CAD_ASSIGN_OR_RETURN(reply, server::ReadFrame(fd));
  if (!reply.has_value()) {
    return Status::IoError("server closed the connection mid-request");
  }
  return *reply;
}

Status UnexpectedReply(const Frame& reply) {
  if (reply.type == MessageType::kError) {
    const Result<std::string> message = server::DecodeText(reply.payload);
    if (!message.ok()) return message.status();
    return Status::Internal("server error: " + *message);
  }
  return Status::Internal("unexpected reply type " +
                          std::to_string(static_cast<int>(reply.type)));
}

/// Sends one batch, retrying kRejected (backpressure) until accepted.
Status SendBatch(int fd, const std::string& tenant,
                 const std::vector<WireEvent>& batch, int64_t retry_ms,
                 size_t* rejections) {
  const std::string payload = server::EncodeEvents(tenant, batch);
  while (true) {
    const Result<Frame> replied = Call(fd, MessageType::kEvents, payload);
    if (!replied.ok()) return replied.status();
    const Frame& reply = *replied;
    if (reply.type == MessageType::kAccepted) return Status::OK();
    if (reply.type == MessageType::kRejected) {
      ++*rejections;
      std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
      continue;
    }
    return UnexpectedReply(reply);
  }
}

Status StreamEvents(int fd, const std::string& tenant,
                    const std::string& events_path, size_t batch_size,
                    int64_t retry_ms, bool finish) {
  const Result<Frame> opened =
      Call(fd, MessageType::kOpen, server::EncodeTenant(tenant));
  if (!opened.ok()) return opened.status();
  if (opened->type != MessageType::kOpenOk) return UnexpectedReply(*opened);
  server::OpenReply open_reply;
  CAD_ASSIGN_OR_RETURN(open_reply, server::DecodeOpenReply(opened->payload));
  std::cerr << "tenant '" << tenant << "' "
            << (open_reply.resumed ? "resumed" : "opened") << " at window "
            << open_reply.next_window << " (" << open_reply.num_nodes
            << " nodes)\n";

  std::ifstream in(events_path);
  if (!in.is_open()) {
    return Status::IoError("cannot open --events " + events_path);
  }
  // Event lines travel as raw endpoint tokens plus parsed doubles; the
  // server owns id-mode detection, interning, and range policy. Only lines
  // whose numeric fields cannot ride the wire at all are rejected here.
  std::vector<WireEvent> batch;
  batch.reserve(batch_size);
  size_t events_sent = 0;
  size_t rejections = 0;
  size_t line_number = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const std::vector<std::string> fields = SplitTokens(stripped);
    if (fields.size() < 3 || fields.size() > 4) {
      return Status::InvalidArgument(
          "events line " + std::to_string(line_number) + ": expected "
          "'<u> <v> <timestamp> [weight]', got " +
          std::to_string(fields.size()) + " fields");
    }
    WireEvent event;
    event.u = fields[0];
    event.v = fields[1];
    CAD_ASSIGN_OR_RETURN(event.timestamp, ParseDouble(fields[2]));
    if (fields.size() == 4) {
      CAD_ASSIGN_OR_RETURN(event.weight, ParseDouble(fields[3]));
    }
    batch.push_back(std::move(event));
    if (batch.size() >= batch_size) {
      CAD_RETURN_NOT_OK(SendBatch(fd, tenant, batch, retry_ms, &rejections));
      events_sent += batch.size();
      batch.clear();
    }
  }
  if (in.bad()) return Status::IoError("read failed on " + events_path);
  if (!batch.empty()) {
    CAD_RETURN_NOT_OK(SendBatch(fd, tenant, batch, retry_ms, &rejections));
    events_sent += batch.size();
  }
  std::cerr << "sent " << events_sent << " events";
  if (rejections > 0) std::cerr << " (" << rejections << " batch retries)";
  std::cerr << "\n";

  if (finish) {
    const Result<Frame> finished =
        Call(fd, MessageType::kFinish, server::EncodeTenant(tenant));
    if (!finished.ok()) return finished.status();
    if (finished->type != MessageType::kOk) return UnexpectedReply(*finished);
    std::cerr << "tenant '" << tenant << "' finished\n";
  }
  return Status::OK();
}

/// Requests that reply with one string (kStats/kReport/kMetrics) print it
/// to stdout.
Status PrintTextReply(int fd, MessageType request, const std::string& payload,
                      MessageType expected) {
  const Result<Frame> reply = Call(fd, request, payload);
  if (!reply.ok()) return reply.status();
  if (reply->type != expected) return UnexpectedReply(*reply);
  const Result<std::string> text = server::DecodeText(reply->payload);
  if (!text.ok()) return text.status();
  std::cout << *text;
  if (text->empty() || text->back() != '\n') std::cout << "\n";
  return Status::OK();
}

int Run(int argc, char** argv) {
  FlagParser flags;
  std::string socket_path;
  std::string tenant;
  std::string events;
  bool finish = false;
  size_t batch = 256;
  int64_t retry_ms = 2;
  bool ping = false;
  bool stats = false;
  bool report = false;
  bool metrics = false;
  bool shutdown = false;
  flags.AddString("socket", &socket_path, "unix-socket path of cad_server");
  flags.AddString("tenant", &tenant,
                  "tenant name (stream identity) for --events/--stats/"
                  "--report");
  flags.AddString("events", &events,
                  "stream this event file '<u> <v> <t> [w]' to --tenant");
  flags.AddBool("finish", &finish,
                "send kFinish after --events (final window flush + "
                "checkpoint)");
  flags.AddCount("batch", &batch, "events per kEvents frame", 1);
  flags.AddInt64("retry_ms", &retry_ms,
                 "backoff before retrying a kRejected batch");
  flags.AddBool("ping", &ping, "liveness probe");
  flags.AddBool("stats", &stats,
                "print stats JSON (per-tenant with --tenant, else the fleet "
                "summary)");
  flags.AddBool("report", &report,
                "print the tenant's recent anomaly-report rows (CSV)");
  flags.AddBool("metrics", &metrics, "print the whole metrics registry CSV");
  flags.AddBool("shutdown", &shutdown, "ask the server to drain and exit");
  if (const std::optional<int> exit = ParseToolFlags(&flags, argc, argv)) {
    return *exit;
  }
  if (socket_path.empty()) {
    std::cerr << "--socket is required\n" << flags.Usage();
    return 2;
  }
  const int actions = (events.empty() ? 0 : 1) + (ping ? 1 : 0) +
                      (stats ? 1 : 0) + (report ? 1 : 0) + (metrics ? 1 : 0) +
                      (shutdown ? 1 : 0);
  if (actions != 1) {
    std::cerr << "exactly one of --events, --ping, --stats, --report, "
                 "--metrics, --shutdown is required\n";
    return 2;
  }
  if (!events.empty() && tenant.empty()) {
    std::cerr << "--events requires --tenant\n";
    return 2;
  }
  if (report && tenant.empty()) {
    std::cerr << "--report requires --tenant\n";
    return 2;
  }
  if (retry_ms < 0) {
    std::cerr << "--retry_ms must be >= 0\n";
    return 2;
  }

  const Result<int> connected = Connect(socket_path);
  if (!connected.ok()) {
    std::cerr << connected.status().ToString() << "\n";
    return 1;
  }
  const int fd = *connected;
  Status status = Status::OK();
  if (!events.empty()) {
    status = StreamEvents(fd, tenant, events, batch, retry_ms, finish);
  } else if (ping) {
    const Result<Frame> reply = Call(fd, MessageType::kPing, "");
    status = !reply.ok()               ? reply.status()
             : reply->type == MessageType::kOk
                 ? Status::OK()
                 : UnexpectedReply(*reply);
    if (status.ok()) std::cout << "pong\n";
  } else if (stats) {
    status = PrintTextReply(fd, MessageType::kStats,
                            server::EncodeTenant(tenant),
                            MessageType::kStatsReply);
  } else if (report) {
    status = PrintTextReply(fd, MessageType::kReport,
                            server::EncodeTenant(tenant),
                            MessageType::kReportReply);
  } else if (metrics) {
    status = PrintTextReply(fd, MessageType::kMetrics, "",
                            MessageType::kMetricsReply);
  } else if (shutdown) {
    const Result<Frame> reply = Call(fd, MessageType::kShutdown, "");
    status = !reply.ok()               ? reply.status()
             : reply->type == MessageType::kOk
                 ? Status::OK()
                 : UnexpectedReply(*reply);
    if (status.ok()) std::cerr << "shutdown acknowledged\n";
  }
  ::close(fd);
  if (!status.ok()) {
    std::cerr << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace cad

int main(int argc, char** argv) { return cad::Run(argc, argv); }
