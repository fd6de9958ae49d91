// ps-wire: one event-loop PS process (eventloop::EventLoopServer driven by
// transport::run_server_node) serves three Unix-socket clients, all driven
// by this generator process. The clients announce f32, fp16 and int8 and
// upload MobileNet-V2-sized models; the PS means them and broadcasts the
// mean back in each client's encoding. Nothing trains: the frame CRC,
// framing, reactor I/O and wire encodings do the work.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.h"
#include "core/rng.h"
#include "eventloop/server.h"
#include "fl/wire_encoding.h"
#include "obs/obs.h"
#include "transport/frame.h"
#include "transport/node_runner.h"
#include "transport/socket_transport.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kClients = 3;
const char* const kEncodings[kClients] = {"f32", "fp16", "int8"};
constexpr std::size_t kRoundsPerSession = 3;
constexpr std::size_t kMaxRounds = 16;
constexpr double kIoTimeout = 60.0;

// Generator -> PS.
struct Command {
  std::uint32_t run = 0;  // 0 = exit
  std::uint32_t rounds = 0;
  std::uint32_t traced = 0;
  char path[96] = {};
};

// PS -> generator, after each session.
struct SessionResult {
  std::uint32_t ok = 0;
  std::uint64_t corrupt_frames = 0;
  std::uint64_t dropped_sends = 0;
  std::uint64_t evictions = 0;
  double peak_rss_mb = 0.0;
  double aggregation_s[kMaxRounds] = {};
  double dissemination_s[kMaxRounds] = {};
  char error[160] = {};
};

void write_full(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, bytes + done, size - done);
    if (n > 0) {
      done += std::size_t(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      throw std::runtime_error(std::string("write: ") + std::strerror(errno));
    }
  }
}

// Reads whatever is available (at least one byte) within the timeout.
std::size_t read_some(int fd, std::uint8_t* data, std::size_t size) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int ready = ::poll(&p, 1, int(kIoTimeout * 1000));
    if (ready == 0) throw std::runtime_error("read timed out");
    if (ready < 0 && errno == EINTR) continue;
    const ssize_t n = ::read(fd, data, size);
    if (n > 0) return std::size_t(n);
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error("peer closed the connection");
  }
}

void read_full(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<std::uint8_t*>(data);
  for (std::size_t done = 0; done < size;)
    done += read_some(fd, bytes + done, size - done);
}

// The PS process: serves sessions until told to exit.
[[noreturn]] void ps_main(int commands, int results) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  obs::set_process_identity("server", 0);
  for (;;) {
    Command cmd;
    try {
      read_full(commands, &cmd, sizeof cmd);
    } catch (const std::exception&) {
      ::_exit(1);
    }
    if (cmd.run == 0) ::_exit(0);
    SessionResult result;
    try {
      fl::FedMsConfig fed;
      fed.clients = kClients;
      fed.servers = 1;
      fed.byzantine = 0;
      fed.rounds = cmd.rounds;
      fed.server_aggregator = "mean";
      // w0 only matters to a PS that receives no upload; the generator
      // uploads every round, so the default workload's model stands in.
      const fl::WorkloadConfig workload;
      auto server = eventloop::EventLoopServer::listen(
          net::server_id(0), transport::SocketAddress::unix_path(cmd.path));
      const std::uint32_t ready = 1;
      write_full(results, &ready, sizeof ready);
      if (cmd.traced) {
        obs::reset();
        obs::set_enabled(true);
      }
      const transport::NodeReport report = transport::run_server_node(
          *server, workload, fed, 0, kIoTimeout);
      server->flush(kIoTimeout);
      obs::set_enabled(false);
      for (const obs::SpanRecord& span : obs::snapshot_spans()) {
        if (std::strcmp(span.category, "node") != 0 ||
            span.round >= kMaxRounds)
          continue;
        const double s = double(span.end_ns - span.start_ns) * 1e-9;
        if (std::strcmp(span.name, "aggregation") == 0)
          result.aggregation_s[span.round] += s;
        else if (std::strcmp(span.name, "dissemination") == 0)
          result.dissemination_s[span.round] += s;
      }
      obs::reset();
      result.corrupt_frames = report.stats.total_received().corrupt_frames;
      result.dropped_sends = server->dropped_sends();
      result.evictions = server->evicted_slow();
      server.reset();
      result.ok = 1;
    } catch (const std::exception& error) {
      std::snprintf(result.error, sizeof result.error, "%s", error.what());
    }
    result.peak_rss_mb = peak_rss_mb();
    write_full(results, &result, sizeof result);
  }
}

struct Client {
  std::string encoding;
  fl::WireEncodingSpec spec;
  int fd = -1;
  std::vector<float> base;  // this client's synthesized model
  std::vector<std::uint8_t> rx;
};

// One round's pre-built upload frames and what the PS decodes from them.
struct Uploads {
  std::vector<std::vector<std::uint8_t>> frames;  // upload + sync, per client
  std::vector<std::vector<float>> decoded;
  std::uint64_t model_bytes = 0;
};

Uploads build_uploads(std::vector<Client>& clients, std::uint64_t round) {
  const transport::FrameCodec codec("none");
  Uploads up;
  const float factor = 1.0f + 0.01f * float(round);
  for (std::size_t k = 0; k < clients.size(); ++k) {
    net::Message upload;
    upload.from = net::client_id(k);
    upload.to = net::server_id(0);
    upload.kind = net::MessageKind::kModelUpload;
    upload.round = round;
    upload.payload = clients[k].base;
    for (float& v : upload.payload) v *= factor;
    if (!clients[k].spec.is_f32()) {
      fl::WireChannel channel(clients[k].spec);
      fl::WireEncodeResult wire = channel.encode(upload.payload);
      upload.payload = std::move(wire.decoded);
      upload.encoded = std::move(wire.bytes);
      upload.encoded_bytes = upload.encoded.size();
      upload.wire_format = clients[k].spec.format_tag();
    }
    std::vector<std::uint8_t> frame;
    codec.encode_to(upload, frame);
    up.model_bytes += frame.size();
    net::Message sync;
    sync.from = upload.from;
    sync.to = upload.to;
    sync.kind = net::MessageKind::kRoundSync;
    sync.round = round;
    codec.encode_to(sync, frame);
    up.frames.push_back(std::move(frame));
    up.decoded.push_back(std::move(upload.payload));
  }
  return up;
}

// Reads one whole frame off the client's connection (raw bytes).
std::vector<std::uint8_t> read_frame(Client& client, double* first_byte) {
  std::uint8_t chunk[1 << 16];
  for (;;) {
    transport::FrameError error = transport::FrameError::kNone;
    const auto size = transport::FrameCodec::frame_size(
        client.rx.data(), client.rx.size(), &error);
    if (error != transport::FrameError::kNone)
      throw std::runtime_error("desynchronized frame stream");
    if (size && client.rx.size() >= *size) {
      std::vector<std::uint8_t> frame(client.rx.begin(),
                                      client.rx.begin() + std::ptrdiff_t(*size));
      client.rx.erase(client.rx.begin(),
                      client.rx.begin() + std::ptrdiff_t(*size));
      return frame;
    }
    const std::size_t n = read_some(client.fd, chunk, sizeof chunk);
    if (first_byte && *first_byte == 0.0) *first_byte = now_s();
    client.rx.insert(client.rx.end(), chunk, chunk + n);
  }
}

struct WireRound {
  double round_s = 0, upload_write_s = 0, ps_service_s = 0,
         broadcast_read_s = 0, frames = 0, model_bytes = 0;
};

class PsProcess {
 public:
  PsProcess() {
    int to_ps[2], from_ps[2];
    if (::pipe(to_ps) != 0 || ::pipe(from_ps) != 0)
      throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::close(to_ps[1]);
      ::close(from_ps[0]);
      ps_main(to_ps[0], from_ps[1]);
    }
    ::close(to_ps[0]);
    ::close(from_ps[1]);
    commands_ = to_ps[1];
    results_ = from_ps[0];
  }
  // Asks the PS to exit; one still busy with a broken session after two
  // seconds is killed. Either way it is reaped before this returns.
  ~PsProcess() {
    Command quit;
    try {
      write_full(commands_, &quit, sizeof quit);
    } catch (const std::exception&) {
    }
    ::close(commands_);
    ::close(results_);
    int status = 0;
    for (int i = 0; i < 200 && ::waitpid(pid_, &status, WNOHANG) == 0; ++i)
      ::usleep(10000);
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
  }
  int commands() const { return commands_; }
  int results() const { return results_; }

 private:
  pid_t pid_ = -1;
  int commands_ = -1, results_ = -1;
};

struct SessionOut {
  double setup_s = 0.0;
  std::vector<WireRound> rounds;
  SessionResult ps;
};

// One session: synthesize the clients' models, start the PS endpoint,
// connect and hello, then run every round and check every broadcast.
void run_session(PsProcess& ps, std::uint64_t seed, bool traced,
                 const std::string& socket_path, Report& report,
                 SessionOut& out) {
  const double t0 = now_s();
  std::vector<Client> clients(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    clients[k].encoding = kEncodings[k];
    fl::parse_wire_encoding(kEncodings[k], &clients[k].spec);
    core::Rng rng(seed * 7919 + k);
    clients[k].base.resize(kPsWireDimension);
    for (float& v : clients[k].base) v = float(rng.uniform(-1.0, 1.0));
  }
  Command cmd;
  cmd.run = 1;
  cmd.rounds = kRoundsPerSession;
  cmd.traced = traced ? 1 : 0;
  std::snprintf(cmd.path, sizeof cmd.path, "%s", socket_path.c_str());
  write_full(ps.commands(), &cmd, sizeof cmd);
  std::uint32_t ready = 0;
  read_full(ps.results(), &ready, sizeof ready);

  const transport::FrameCodec codec("none");
  const auto address = transport::SocketAddress::unix_path(socket_path);
  for (std::size_t k = 0; k < kClients; ++k) {
    clients[k].fd = transport::connect_with_retry(address, {0.01, 2.0, 8});
    net::Message hello;
    hello.from = net::client_id(k);
    hello.to = net::server_id(0);
    hello.kind = net::MessageKind::kHello;
    if (!clients[k].spec.is_f32())
      hello.hello_encoding = clients[k].spec.to_string();
    const auto frame = codec.encode(hello);
    write_full(clients[k].fd, frame.data(), frame.size());
  }
  out.setup_s = now_s() - t0;

  // Every round's uploads are framed before the first round and checked
  // after the last, so the rounds run back to back and time only the
  // socket I/O, the PS and the broadcast reads.
  std::vector<Uploads> uploads;
  for (std::uint64_t round = 0; round < kRoundsPerSession; ++round)
    uploads.push_back(build_uploads(clients, round));
  // received[round][client] = the raw broadcast and sync frames.
  std::vector<std::vector<std::vector<std::vector<std::uint8_t>>>> received;
  for (std::uint64_t round = 0; round < kRoundsPerSession; ++round) {
    const Uploads& up = uploads[round];
    WireRound w;
    const double r0 = now_s();
    for (std::size_t k = 0; k < kClients; ++k)
      write_full(clients[k].fd, up.frames[k].data(), up.frames[k].size());
    const double written = now_s();
    double first_byte = 0.0;
    received.emplace_back(kClients);
    for (std::size_t k = 0; k < kClients; ++k)
      for (int f = 0; f < 2; ++f)
        received.back()[k].push_back(read_frame(clients[k], &first_byte));
    const double done = now_s();
    w.round_s = done - r0;
    w.upload_write_s = written - r0;
    w.ps_service_s = done - written;
    w.broadcast_read_s = done - first_byte;
    w.frames = double(4 * kClients);
    w.model_bytes = double(up.model_bytes);
    out.rounds.push_back(w);
  }

  // Decode every frame (CRC included) and compare each broadcast with the
  // double-precision mean of the decoded uploads.
  std::string failure;
  for (std::uint64_t round = 0; round < kRoundsPerSession; ++round)
    for (std::size_t k = 0; k < kClients && failure.empty(); ++k) {
      bool broadcast = false, sync = false;
      for (const auto& frame : received[round][k]) {
        const auto decoded = codec.decode(frame);
        if (!decoded.ok()) {
          failure = "client " + std::to_string(k) + ": frame rejected (" +
                    transport::to_string(decoded.error) + ")";
          break;
        }
        const net::Message& m = decoded.message;
        if (m.round != round) failure = "broadcast from another round";
        if (m.kind == net::MessageKind::kRoundSync) {
          sync = true;
        } else if (m.kind == net::MessageKind::kModelBroadcast) {
          broadcast = true;
          out.rounds[round].model_bytes += double(frame.size());
          failure = check_broadcast(m.payload, uploads[round].decoded,
                                    clients[k].encoding);
        } else {
          failure = "unexpected frame kind";
        }
      }
      if (failure.empty() && !(broadcast && sync))
        failure = "client " + std::to_string(k) + " missed its broadcast";
    }
  report.check("ps-wire broadcasts equal the mean of the uploads",
               failure.empty(), failure);
  for (Client& client : clients) ::close(client.fd);
  read_full(ps.results(), &out.ps, sizeof out.ps);
  if (!out.ps.ok)
    throw std::runtime_error(std::string("PS session failed: ") +
                             out.ps.error);
  const std::string faults =
      check_wire_faults(out.ps.corrupt_frames, out.ps.dropped_sends,
                        out.ps.evictions);
  report.check("ps-wire corrupt frames, dropped sends, evictions",
               faults.empty(), faults);
}

struct Phase {
  std::vector<double> setups;
  std::vector<WireRound> rounds;
  std::vector<double> aggregation_s, dissemination_s;
  double peak_rss_mb = 0.0;
};

void run_phase(PsProcess& ps, const RunOptions& options, bool traced,
               double seconds, std::size_t& session, Report& report,
               Phase& phase) {
  const std::string path =
      ".bench_build/ps-wire-" + std::to_string(::getpid()) + ".sock";
  const double stop = now_s() + seconds;
  do {
    SessionOut out;
    const std::uint64_t seed = options.seed * 1000 + session++;
    report.attempted += kRoundsPerSession;
    try {
      run_session(ps, seed, traced, path, report, out);
    } catch (const std::exception& error) {
      report.failed += kRoundsPerSession - out.rounds.size();
      report.failures.push_back(std::string("ps-wire session: ") +
                                error.what());
      throw;
    }
    phase.setups.push_back(out.setup_s);
    phase.rounds.insert(phase.rounds.end(), out.rounds.begin(),
                        out.rounds.end());
    phase.peak_rss_mb = std::max(phase.peak_rss_mb, out.ps.peak_rss_mb);
    for (std::size_t r = 0; r < kRoundsPerSession; ++r) {
      phase.aggregation_s.push_back(out.ps.aggregation_s[r]);
      phase.dissemination_s.push_back(out.ps.dissemination_s[r]);
    }
  } while (now_s() < stop || phase.setups.size() < 3);
}

double med(const std::vector<WireRound>& rounds, double WireRound::*field) {
  std::vector<double> values;
  for (const WireRound& r : rounds) values.push_back(r.*field);
  return median(values);
}

}  // namespace

void run_ps_wire(const RunOptions& options, Report& report,
                 LayerValues& layers) {
  report.info["engine"] =
      "one EventLoopServer PS process (run_server_node, mean aggregation) "
      "and one generator process over Unix sockets";
  report.info["clients"] =
      "3 connections announcing f32, fp16, int8; d = " +
      std::to_string(kPsWireDimension) + " floats; " +
      std::to_string(kRoundsPerSession) + " rounds per session";
  report.info["seeds"] =
      "session i synthesizes client k's model from seed*1000+i";

  // The PS process is forked before the generator allocates anything, so
  // its peak RSS is its own.
  PsProcess ps;
  std::size_t session = 0;
  Phase untraced;
  run_phase(ps, options, false,
            options.trace ? options.seconds / 2 : options.seconds, session,
            report, untraced);
  std::vector<double> round_samples;
  for (const WireRound& r : untraced.rounds) round_samples.push_back(r.round_s);
  report.samples["round_s"] = round_samples;
  report.samples["setup_s"] = untraced.setups;
  const double round_s = median(round_samples);
  if (!options.trace) {
    report.metric("round_s", round_s, "s");
    report.metric("setup_s", median(untraced.setups), "s");
    report.metric("bytes_per_round", med(untraced.rounds, &WireRound::model_bytes),
                  "bytes");
    report.metric("peak_rss_mb", untraced.peak_rss_mb, "MB");
    return;
  }

  Phase traced;
  run_phase(ps, options, true, options.seconds / 2, session, report, traced);
  std::vector<double> traced_rounds;
  for (const WireRound& r : traced.rounds) traced_rounds.push_back(r.round_s);
  report.samples["traced_round_s"] = traced_rounds;
  layers["eventloop.ps_service_s"] = med(traced.rounds, &WireRound::ps_service_s);
  layers["eventloop.upload_write_s"] =
      med(traced.rounds, &WireRound::upload_write_s);
  layers["eventloop.broadcast_read_s"] =
      med(traced.rounds, &WireRound::broadcast_read_s);
  layers["eventloop.frames"] = med(traced.rounds, &WireRound::frames);
  layers["stage.upload_s"] = layers["eventloop.upload_write_s"];
  layers["stage.aggregation_s"] = median(traced.aggregation_s);
  layers["stage.dissemination_s"] = median(traced.dissemination_s);
  layers["obs.tracing_overhead_s"] = median(traced_rounds) - round_s;
  layers["fl.aggregate_round_us"] =
      replay_aggregate_round_us(kClients, kPsWireDimension, options.seed);
}

}  // namespace perfbench
