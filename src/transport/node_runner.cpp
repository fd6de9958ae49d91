#include "transport/node_runner.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/contracts.h"
#include "core/rng.h"
#include "fl/client_round.h"
#include "fl/wire_encoding.h"
#include "obs/obs.h"
#include "transport/frame.h"

namespace fedms::transport {

namespace {

[[noreturn]] void protocol_error(const net::NodeId& self,
                                 const std::string& what) {
  throw std::runtime_error(net::to_string(self) + ": " + what);
}

// Format doubles as C99 hexfloats: exact round-trip through text.
std::string exact_double(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%a", value);
  return buffer;
}

const char* kind_name(net::NodeKind kind) {
  return kind == net::NodeKind::kClient ? "client" : "server";
}

void write_links(std::ostringstream& out, const char* tag,
                 const std::map<net::NodeId, LinkStats>& links) {
  for (const auto& [peer, link] : links)
    out << "stat " << tag << ' ' << kind_name(peer.kind) << ' '
        << peer.index << ' ' << link.messages << ' ' << link.bytes << ' '
        << link.control_messages << ' ' << link.control_bytes << ' '
        << link.corrupt_frames << '\n';
}

// Tells all `peers` servers (or clients) that this node's round-`round`
// messages are sent.
void send_round_syncs(Transport& transport, std::size_t peers,
                      bool to_servers, std::uint64_t round) {
  for (std::size_t i = 0; i < peers; ++i) {
    net::Message sync;
    sync.from = transport.self();
    sync.to = to_servers ? net::server_id(i) : net::client_id(i);
    sync.kind = net::MessageKind::kRoundSync;
    sync.round = round;
    transport.send(std::move(sync));
  }
}

// Receives until all `peers` round-synced, handing every `kind` frame to
// `on_data`. A timeout, a frame of another round or of another kind is a
// protocol error.
template <typename OnData>
void collect_round(Transport& transport, std::uint64_t round,
                   std::size_t peers, net::MessageKind kind,
                   double timeout_seconds, OnData on_data) {
  const net::NodeId self = transport.self();
  std::size_t syncs = 0;
  while (syncs < peers) {
    auto m = transport.receive(timeout_seconds);
    if (!m.has_value())
      protocol_error(self, "timeout waiting for round " +
                               std::to_string(round) + " " +
                               net::to_string(kind) + " frames");
    if (m->round != round)
      protocol_error(self, "message from round " + std::to_string(m->round) +
                               " during round " + std::to_string(round));
    if (m->kind == net::MessageKind::kRoundSync)
      ++syncs;
    else if (m->kind == kind)
      on_data(std::move(*m));
    else
      protocol_error(self, std::string("unexpected ") +
                               net::to_string(m->kind) + " frame");
  }
}

}  // namespace

void check_transport_supported(const fl::FedMsConfig& fed) {
  const auto reject = [](bool bad, const char* what) {
    if (bad)
      throw std::runtime_error(
          std::string("transport engine does not support ") + what);
  };
  // Power-of-choice ranks clients by losses only the simulator sees
  // globally (uniform participation replays the shared seed stream).
  reject(fed.participation < 1.0 && fed.participation_strategy == "highloss",
         "participation_strategy=highloss (loss-based selection needs "
         "global loss state; rerun with --participation-strategy uniform)");
  // A real link loses frames by corruption, not by a simulated coin flip.
  reject(fed.network_loss_rate > 0.0,
         "simulated link loss (use transport corruption injection)");
  // Each client process reports only its own evaluation.
  reject(fed.eval_clients != 0, "eval_clients subsets");
}

std::string to_report_text(const NodeReport& report) {
  std::ostringstream out;
  out << "fedms-node-report v1\n";
  out << "role " << kind_name(report.self.kind) << '\n';
  out << "index " << report.self.index << '\n';
  out << "rounds " << report.rounds << '\n';
  out << "final_accuracy " << exact_double(report.final_accuracy) << '\n';
  out << "final_eval_loss " << exact_double(report.final_eval_loss) << '\n';
  out << "model_crc " << report.model_crc << '\n';
  write_links(out, "sent", report.stats.sent);
  write_links(out, "recv", report.stats.received);
  out << "end\n";
  return out.str();
}

NodeReport parse_report_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  const auto fail = [](const std::string& why) -> void {
    throw std::runtime_error("bad node report: " + why);
  };
  if (!std::getline(in, line) || line != "fedms-node-report v1")
    fail("missing header");

  NodeReport report;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "end") {
      saw_end = true;
      break;
    } else if (key == "role") {
      std::string role;
      fields >> role;
      if (role == "client")
        report.self.kind = net::NodeKind::kClient;
      else if (role == "server")
        report.self.kind = net::NodeKind::kServer;
      else
        fail("unknown role " + role);
    } else if (key == "index") {
      fields >> report.self.index;
    } else if (key == "rounds") {
      fields >> report.rounds;
    } else if (key == "final_accuracy" || key == "final_eval_loss") {
      std::string value;
      fields >> value;
      const double parsed = std::strtod(value.c_str(), nullptr);
      (key == "final_accuracy" ? report.final_accuracy
                               : report.final_eval_loss) = parsed;
    } else if (key == "model_crc") {
      fields >> report.model_crc;
    } else if (key == "stat") {
      std::string tag, peer_kind;
      std::size_t peer_index = 0;
      LinkStats link;
      fields >> tag >> peer_kind >> peer_index >> link.messages >>
          link.bytes >> link.control_messages >> link.control_bytes >>
          link.corrupt_frames;
      if (fields.fail()) fail("malformed stat line: " + line);
      net::NodeId peer;
      if (peer_kind == "client")
        peer.kind = net::NodeKind::kClient;
      else if (peer_kind == "server")
        peer.kind = net::NodeKind::kServer;
      else
        fail("unknown peer kind " + peer_kind);
      peer.index = peer_index;
      if (tag == "sent")
        report.stats.sent[peer] = link;
      else if (tag == "recv")
        report.stats.received[peer] = link;
      else
        fail("unknown stat tag " + tag);
    } else {
      fail("unknown key " + key);
    }
    if (fields.fail()) fail("malformed line: " + line);
  }
  if (!saw_end) fail("missing end marker");
  return report;
}

NodeReport run_client_node(Transport& transport, const fl::Workload& data,
                           const fl::WorkloadConfig& workload,
                           const fl::FedMsConfig& fed, std::size_t k,
                           double timeout_seconds) {
  fed.validate();
  check_transport_supported(fed);
  FEDMS_EXPECTS(k < fed.clients);
  FEDMS_EXPECTS(transport.self() == net::client_id(k));

  fl::LearnerPtr learner = fl::make_nn_learner(data, workload, fed, k);
  fl::ClientRules rules(fed, /*keep_wire_bytes=*/true);
  // Same root batch, scorer model, and eval path as the simulator, so the
  // fedgreed selection — and hence --verify — is bit-identical per client.
  fl::install_fedgreed_scorer(*rules.filter, data, workload, fed);
  fl::ClientRound client(rules, k, *learner);
  core::Rng participation_rng =
      core::SeedSequence(fed.seed).make_rng("participation");
  std::vector<net::Message> uploads;

  obs::set_thread_label("client" + std::to_string(k));

  NodeReport report;
  report.self = net::client_id(k);
  report.rounds = fed.rounds;

  for (std::uint64_t round = 0; round < fed.rounds; ++round) {
    // Partial participation: replay the simulator's shared draw. A
    // sitting-out client skips training and upload (its ps-choice stream
    // stays untouched, as in the simulator) but still round-syncs so the
    // PSs' barriers close, and still collects + filters broadcasts.
    const bool participates =
        fed.participation >= 1.0 ||
        fl::draw_participants(fed, participation_rng)[k];

    // ---- Stage 1: local training ----
    if (participates) {
      obs::Span span("node", "local_training", round, "client",
                     static_cast<std::int64_t>(k));
      client.train();
    }

    // ---- Stage 2: upload to the selected PS set, then round-sync all ----
    {
      obs::Span span("node", "upload", round, "client",
                     static_cast<std::int64_t>(k));
      if (participates) {
        uploads.clear();
        client.upload(round, uploads);
        for (net::Message& m : uploads) transport.send(std::move(m));
      }
      send_round_syncs(transport, fed.servers, /*to_servers=*/true, round);
    }

    // ---- Stage 3: collect broadcasts until every PS round-synced ----
    {
      obs::Span span("node", "dissemination", round, "client",
                     static_cast<std::int64_t>(k));
      collect_round(transport, round, fed.servers,
                    net::MessageKind::kModelBroadcast, timeout_seconds,
                    [&](net::Message m) { client.receive(std::move(m)); });
    }

    // Def() over the candidates; an empty set means every PS went
    // silent/corrupt and the client continues from its local model.
    if (client.candidate_count() > 0) {
      obs::Span span("node", "filter", round, "client",
                     static_cast<std::int64_t>(k));
      client.filter();
    }

    if (fl::is_eval_round(fed, round)) {
      const fl::LearnerEval eval = learner->evaluate();
      report.final_accuracy = eval.accuracy;
      report.final_eval_loss = eval.loss;
    }
  }

  report.model_crc = crc32c_floats(learner->parameters());
  report.stats = transport.stats();
  return report;
}

NodeReport run_server_node(Transport& transport,
                           const fl::WorkloadConfig& workload,
                           const fl::FedMsConfig& fed, std::size_t p,
                           double timeout_seconds) {
  fed.validate();
  check_transport_supported(fed);
  FEDMS_EXPECTS(p < fed.servers);
  FEDMS_EXPECTS(transport.self() == net::server_id(p));

  // This PS's identity and streams, exactly as every other engine builds
  // them (byz-placement is consumed identically in every process).
  fl::ParameterServer server = fl::make_server(
      fed, p, fl::initial_model(workload, fed), /*keep_wire_bytes=*/true);

  obs::set_thread_label("server" + std::to_string(p));

  NodeReport report;
  report.self = net::server_id(p);
  report.rounds = fed.rounds;

  for (std::uint64_t round = 0; round < fed.rounds; ++round) {
    // ---- Aggregation stage: uploads until every client round-synced ----
    {
      obs::Span span("node", "aggregation", round, "server",
                     static_cast<std::int64_t>(p));
      collect_round(transport, round, fed.clients,
                    net::MessageKind::kModelUpload, timeout_seconds,
                    [&](net::Message m) { server.receive(std::move(m)); });
      server.aggregate_round(round);
    }

    // ---- Dissemination stage. disseminate() is called for every client
    // in ascending order even when nothing is sent (the attack's RNG
    // stream advances per call in the simulator). ----
    obs::Span span("node", "dissemination", round, "server",
                   static_cast<std::int64_t>(p));
    for (std::size_t k = 0; k < fed.clients; ++k) {
      // Each client's broadcasts go out in the encoding its hello asked
      // for (queried per round — by the dissemination stage every client
      // has identified itself); an unintelligible announce gets f32.
      fl::WireEncodingSpec spec;
      if (!fl::parse_wire_encoding(
               transport.peer_encoding(net::client_id(k)), &spec)
               .empty())
        spec = fl::WireEncodingSpec{};
      net::Message m = server.broadcast(round, k, spec);
      // Empty payload = crashed/silent PS: nothing goes on the wire (the
      // client's wire stream does not advance either — keyframes are
      // per-frame flags, so a gap desynchronizes nothing).
      if (m.payload.empty()) continue;
      transport.send(std::move(m));
    }
    send_round_syncs(transport, fed.clients, /*to_servers=*/false, round);
  }

  report.model_crc = crc32c_floats(server.honest_aggregate());
  report.stats = transport.stats();
  return report;
}

double TransportRunSummary::mean_accuracy() const {
  FEDMS_EXPECTS(!clients.empty());
  double sum = 0.0;
  for (const NodeReport& client : clients) sum += client.final_accuracy;
  return sum / double(clients.size());
}

double TransportRunSummary::mean_eval_loss() const {
  FEDMS_EXPECTS(!clients.empty());
  double sum = 0.0;
  for (const NodeReport& client : clients) sum += client.final_eval_loss;
  return sum / double(clients.size());
}

TransportRunSummary::DataTotals TransportRunSummary::data_totals() const {
  DataTotals totals;
  for (const NodeReport& client : clients) {
    const LinkStats sent = client.stats.total_sent();
    totals.uplink_messages += sent.messages;
    totals.uplink_bytes += sent.bytes;
  }
  for (const NodeReport& server : servers) {
    const LinkStats sent = server.stats.total_sent();
    totals.downlink_messages += sent.messages;
    totals.downlink_bytes += sent.bytes;
  }
  return totals;
}

std::uint64_t TransportRunSummary::corrupt_frames() const {
  std::uint64_t total = 0;
  for (const NodeReport& node : clients)
    total += node.stats.total_received().corrupt_frames;
  for (const NodeReport& node : servers)
    total += node.stats.total_received().corrupt_frames;
  return total;
}

std::vector<std::string> diff_against_simulator(
    const fl::WorkloadConfig& workload, const fl::FedMsConfig& fed,
    const TransportRunSummary& summary) {
  std::vector<std::uint32_t> sim_crcs;
  fl::Experiment experiment = fl::make_experiment(workload, fed);
  experiment.run->set_round_callback(
      [&](std::uint64_t round, const std::vector<fl::LearnerPtr>& learners) {
        if (round + 1 != fed.rounds) return;
        for (const auto& learner : learners)
          sim_crcs.push_back(crc32c_floats(learner->parameters()));
      });
  const fl::RunResult sim = experiment.run->run();

  std::vector<std::string> diffs;
  char line[160];
  const fl::RoundRecord& eval = sim.final_eval();
  // Bit for bit, not approximate: same floats in the same order.
  if (summary.mean_accuracy() != *eval.eval_accuracy ||
      summary.mean_eval_loss() != *eval.eval_loss) {
    std::snprintf(line, sizeof line,
                  "final eval: accuracy %.17g vs simulated %.17g, loss %.17g "
                  "vs %.17g",
                  summary.mean_accuracy(), *eval.eval_accuracy,
                  summary.mean_eval_loss(), *eval.eval_loss);
    diffs.emplace_back(line);
  }
  if (summary.clients.size() != sim_crcs.size())
    diffs.emplace_back("client count");
  for (std::size_t k = 0; k < std::min(sim_crcs.size(), summary.clients.size());
       ++k) {
    if (summary.clients[k].model_crc == sim_crcs[k]) continue;
    std::snprintf(line, sizeof line,
                  "client %zu final model CRC %08x vs simulated %08x", k,
                  summary.clients[k].model_crc, sim_crcs[k]);
    diffs.emplace_back(line);
  }
  const TransportRunSummary::DataTotals totals = summary.data_totals();
  const auto traffic = [&](const char* direction, std::uint64_t bytes,
                           std::uint64_t messages,
                           const net::TrafficStats& simulated) {
    if (bytes == simulated.bytes && messages == simulated.messages) return;
    std::snprintf(line, sizeof line,
                  "%s data traffic %llu B / %llu msgs vs simulated %llu B / "
                  "%llu msgs",
                  direction, static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(simulated.bytes),
                  static_cast<unsigned long long>(simulated.messages));
    diffs.emplace_back(line);
  };
  traffic("uplink", totals.uplink_bytes, totals.uplink_messages,
          sim.uplink_total);
  traffic("downlink", totals.downlink_bytes, totals.downlink_messages,
          sim.downlink_total);
  if (summary.corrupt_frames() != 0)
    diffs.emplace_back(std::to_string(summary.corrupt_frames()) +
                       " corrupt frames");
  return diffs;
}

TransportRunSummary run_transport_experiment(
    const fl::WorkloadConfig& workload, const fl::FedMsConfig& fed,
    InMemoryHub& hub, double timeout_seconds) {
  fed.validate();
  check_transport_supported(fed);
  const fl::Workload data = fl::make_workload(workload, fed);

  // All endpoints registered before any node thread starts, so no send
  // can race an unregistered receiver.
  std::vector<std::unique_ptr<InMemoryTransport>> client_endpoints;
  std::vector<std::unique_ptr<InMemoryTransport>> server_endpoints;
  for (std::size_t k = 0; k < fed.clients; ++k)
    client_endpoints.push_back(
        hub.make_endpoint(net::client_id(k), fed.wire_encoding));
  for (std::size_t p = 0; p < fed.servers; ++p)
    server_endpoints.push_back(
        hub.make_endpoint(net::server_id(p), fed.wire_encoding));

  TransportRunSummary summary;
  summary.clients.resize(fed.clients);
  summary.servers.resize(fed.servers);
  std::vector<std::exception_ptr> errors(fed.clients + fed.servers);

  std::vector<std::thread> threads;
  threads.reserve(fed.clients + fed.servers);
  for (std::size_t k = 0; k < fed.clients; ++k) {
    threads.emplace_back([&, k] {
      try {
        summary.clients[k] =
            run_client_node(*client_endpoints[k], data, workload, fed, k,
                            timeout_seconds);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    });
  }
  for (std::size_t p = 0; p < fed.servers; ++p) {
    threads.emplace_back([&, p] {
      try {
        summary.servers[p] = run_server_node(*server_endpoints[p], workload,
                                             fed, p, timeout_seconds);
      } catch (...) {
        errors[fed.clients + p] = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  return summary;
}

}  // namespace fedms::transport
