// Sharded campaign simulation: thousands of stub networks, one victim.
//
// `bench_multistub_campaign`'s MultiStubSim runs every stub in a single
// event loop — fine for 4 stubs, hopeless for the paper's §4.2.3 bound
// of A_s = 378–8000 stubs. CampaignSim exploits the structure of that
// setting: stubs are causally independent except at the shared victim,
// so the topology decomposes into `cells` (fixed groups of stubs, each
// with its own slot-arena sim::Scheduler, LeafRouters, SynDogAgents and
// per-stub child Rngs) plus one victim cell. Cells advance through
// conservative time windows no wider than the lookahead L = min(uplink
// delay, downlink delay); anything that crosses a cell boundary rides a
// MailboxRecord whose arrival time is computed analytically, and all
// mailboxes are merged in canonical order at each window barrier (see
// mailbox.hpp).
//
// Determinism: the cell count is fixed by the topology (never by the
// worker count), cells share no mutable state, and the barrier merge is
// canonically ordered — so every observable output (period tables,
// alarm timelines, stats, state_digest()) is byte-identical for
// workers=1 vs workers=8. `run_until(end)` is the single-threaded
// reference; `run_until(end, workers)` (runner.cpp, the module's only
// threaded file) runs the same windows with cells spread over threads
// and one std::barrier between windows.
//
// Wide-area traffic model: each stub is a sim::StubSite, and there is no
// shared InternetCloud. Generic Internet space answers a stub through
// sim::answer_segment (InternetCloud's responder) with the stub's own
// child Rng and counters, which is what makes the shards independent.
// Packets addressed to the victim cross via mailbox; victim replies into
// a stub prefix cross back the same way; replies to the spoofed 240/8
// pool die at the victim's edge, as in the oracle's unreachable pool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "syndog/campaign/mailbox.hpp"
#include "syndog/core/agent.hpp"
#include "syndog/core/syndog.hpp"
#include "syndog/net/address.hpp"
#include "syndog/sim/internet.hpp"
#include "syndog/sim/router.hpp"
#include "syndog/sim/scheduler.hpp"
#include "syndog/sim/stub_site.hpp"
#include "syndog/sim/tcp_host.hpp"
#include "syndog/util/rng.hpp"
#include "syndog/util/time.hpp"

namespace syndog::campaign {

struct CampaignParams {
  /// Stub networks, in [1, kMaxStubs]. Stub `s` owns the /20 prefix
  /// based at 10.0.0.0 + (s << 12) — up to 4094 addressable hosts each.
  int stub_count = 4;
  /// Hosts addressable per stub, in [1, 4094]. Host indices are 1-based
  /// (offset 0 is the prefix base), as in sim::StubSite::host().
  std::uint32_t hosts_per_stub = 25;
  /// Scheduler cells the stubs are partitioned into; 0 = auto
  /// (min(stub_count, 64)). The victim always gets one extra cell.
  /// Results never depend on this — it only sets parallelism grain.
  int cells = 0;
  util::SimTime lan_delay = util::SimTime::microseconds(100);
  /// Cross-shard links are pure fixed latencies, like the oracle's
  /// sim::Link delay lines: the mailbox protocol computes arrival times
  /// analytically, so any state-dependent link behaviour would break
  /// shard independence.
  util::SimTime uplink_delay = util::SimTime::milliseconds(5);
  util::SimTime downlink_delay = util::SimTime::milliseconds(5);
  /// Conservative window width; 0 = auto (the lookahead, min(uplink,
  /// downlink)). Must not exceed the lookahead.
  util::SimTime window = util::SimTime::zero();
  /// How generic Internet space answers each stub (sim::answer_segment).
  sim::ResponderParams responder;
  net::Ipv4Address victim_ip{198, 51, 100, 10};
  std::uint16_t victim_port = 80;
  /// Victim replies into this pool die at the victim's edge (the oracle
  /// cloud's unreachable pool — where spoofed flood sources live).
  net::Ipv4Prefix unreachable_pool{net::Ipv4Address{240, 0, 0, 0}, 8};
  sim::TcpHostParams host_params;
  sim::TcpHostParams victim_params;
  core::SynDogParams agent_params;
  std::uint64_t seed = 1;

  static constexpr int kMaxStubs = 16384;

  /// Throws std::invalid_argument on out-of-range values.
  void validate() const;
};

struct AlarmRecord {
  int stub = 0;
  core::AlarmEvent event;
};

class CampaignSim {
 public:
  explicit CampaignSim(CampaignParams params);

  CampaignSim(const CampaignSim&) = delete;
  CampaignSim& operator=(const CampaignSim&) = delete;

  [[nodiscard]] const CampaignParams& params() const { return params_; }
  [[nodiscard]] int stub_count() const { return params_.stub_count; }
  [[nodiscard]] net::Ipv4Prefix stub_prefix(int stub) const;
  [[nodiscard]] sim::LeafRouter& router(int stub);
  [[nodiscard]] core::SynDogAgent& agent(int stub);
  [[nodiscard]] const core::SynDogAgent& agent(int stub) const;
  /// Host `index` in [1, hosts_per_stub] of stub `stub`
  /// (sim::StubSite::host(): 1-based, materialized on first use).
  /// Throws std::out_of_range naming the valid range otherwise.
  [[nodiscard]] sim::TcpHost& host(int stub, std::uint32_t index);
  [[nodiscard]] sim::TcpHost& victim() { return *victim_; }
  [[nodiscard]] const sim::TcpHost& victim() const { return *victim_; }

  // ---- Workload -------------------------------------------------------
  // All of these must be called before run_until(); they draw only from
  // the named stub's child Rngs, so two stubs' workloads never share a
  // stream (the decomposition-independence invariant).

  /// One full TCP handshake from host `host_index` of `stub` to
  /// `dst:port` at time `at` (a real TcpHost::connect, retransmissions
  /// and all). Drives the oracle-equivalence tests.
  // syndog-lint: allow-next-line(api.test_only) -- test driver of CampaignOracleTest, which pins the cell loop against MultiStubSim
  void connect_background(int stub, std::uint32_t host_index,
                          util::SimTime at, net::Ipv4Address dst,
                          std::uint16_t port = 80);
  /// Wire-level Poisson background at `rate_per_sec` connections/s over
  /// [start, end): crafted SYNs from random hosts of `stub` to generic
  /// servers, answered by the stub responder. No TcpHost is
  /// materialized (2 events per connection), which is what makes ~1M
  /// simulated hosts affordable; the agent's sniffers see exactly the
  /// same SYN / SYN-ACK wire pairs as the host-stack path.
  void start_wire_background(int stub, double rate_per_sec,
                             util::SimTime start, util::SimTime end);
  /// Spoofed-source flood from host `host_index` of `stub` toward the
  /// victim; one SYN per entry of `syn_times`, sources drawn from
  /// `spoof_pool` (sim::StubSite::launch_flood, on the stub's flood rng).
  void launch_flood(int stub, std::uint32_t host_index,
                    const std::vector<util::SimTime>& syn_times,
                    net::Ipv4Prefix spoof_pool);

  // ---- Running --------------------------------------------------------

  /// Single-threaded reference run: windows + barriers inline, cells in
  /// ascending order.
  void run_until(util::SimTime end);
  /// Threaded run (runner.cpp): the caller and `workers - 1` threads
  /// claim cells off one counter each window and meet at one barrier,
  /// whose completion step does the exchange. workers <= 1 is exactly
  /// run_until(end). An exception from a cell or the exchange stops the
  /// run at that window's barrier and is rethrown here once every thread
  /// has joined; the campaign is then part-way through that window.
  void run_until(util::SimTime end, int workers);

  // ---- Runner protocol (see docs/CAMPAIGN.md) -------------------------
  // A window advances every cell to the barrier, then exchanges
  // mailboxes. run_cell_until may be called concurrently for *distinct*
  // cells; exchange_and_advance is single-threaded-only.

  /// Barrier clock: all cells have fully executed up to here.
  [[nodiscard]] util::SimTime now() const { return now_; }
  [[nodiscard]] util::SimTime window() const { return window_; }
  /// Stub cells + 1 victim cell (the last index).
  [[nodiscard]] int cell_count() const;
  /// Runs cell `cell`'s scheduler to `until`; returns events executed.
  std::size_t run_cell_until(int cell, util::SimTime until);
  /// Merges all outboxes in canonical order, injects them into their
  /// destination cells, and advances now() to `barrier`. Throws
  /// std::logic_error if any record's arrival predates the barrier (the
  /// lookahead guarantee was violated).
  void exchange_and_advance(util::SimTime barrier);
  /// Smallest (arrival - barrier) slack seen across every injected
  /// record; SimTime::max() until something crosses. The randomized
  /// barrier property test asserts this never goes negative.
  [[nodiscard]] util::SimTime min_injection_margin() const {
    return min_injection_margin_;
  }

  // ---- Results --------------------------------------------------------

  [[nodiscard]] const CrossStats& cross_stats() const { return cross_; }
  /// Responder counters summed over stubs in ascending stub order.
  [[nodiscard]] sim::ResponderStats responder_stats() const;
  /// Router stats summed over stubs in ascending stub order.
  [[nodiscard]] sim::RouterStats router_stats() const;
  /// Alarm events merged across stubs, ordered by (time, stub).
  [[nodiscard]] std::vector<AlarmRecord> merged_alarms() const;
  /// Stubs whose agent ever alarmed.
  [[nodiscard]] int stubs_alarmed() const;
  /// Events executed, summed over all cells (worker-count invariant).
  [[nodiscard]] std::uint64_t events_executed() const;

  /// Canonical full-state rendering: per-stub period tables (%.17g),
  /// alarm timelines, router/responder/victim/cross stats. Two runs of
  /// the same campaign produce byte-identical digests regardless of
  /// worker count; the equivalence tests and the bench merge check
  /// compare these strings directly.
  [[nodiscard]] std::string state_digest() const;

 private:
  struct StubNet {
    sim::StubSite site;
    std::unique_ptr<core::SynDogAgent> agent;
    util::Rng workload_rng;   ///< wire/host background draws
    util::Rng flood_rng;      ///< spoofed source / sport / seq draws
    util::Rng responder_rng;  ///< no-answer, ISN, RTT draws
    std::uint64_t mailbox_seq = 0;
    sim::ResponderStats responder;
    std::vector<AlarmRecord> alarms;

    StubNet(const CampaignParams& params, int stub, sim::Scheduler& sched);
  };

  struct Cell {
    sim::Scheduler sched;
    std::vector<MailboxRecord> outbox;
  };

  [[nodiscard]] int cell_of(int stub) const;
  [[nodiscard]] sim::Scheduler& sched_of(int stub);
  [[nodiscard]] StubNet& stub_at(int stub);
  [[nodiscard]] const StubNet& stub_at(int stub) const;
  /// Stub owning `ip`, or -1 if it is outside every stub prefix.
  [[nodiscard]] int stub_of(net::Ipv4Address ip) const;
  /// Router uplink sink for stub `stub`: victim-bound -> outbox, generic
  /// -> responder, whose reply re-enters the stub after uplink + RTT +
  /// downlink (the oracle cloud's timing). Runs inside cell execution.
  void on_uplink(int stub, const net::Packet& packet);
  void note_injection(util::SimTime arrive_at, util::SimTime barrier);
  /// Victim TcpHost send sink: stub-bound -> victim outbox, spoof pool
  /// -> dropped. Runs inside victim-cell execution.
  void on_victim_send(const net::Packet& packet);
  void wire_background_step(int stub, double rate_per_sec,
                            util::SimTime end);
  void inject_into_victim(const MailboxRecord& record);
  void inject_into_stub(const MailboxRecord& record);

  CampaignParams params_;
  util::SimTime window_;
  std::vector<std::unique_ptr<Cell>> cells_;  ///< stub cells
  std::vector<std::unique_ptr<StubNet>> stubs_;
  std::unique_ptr<Cell> victim_cell_;
  std::unique_ptr<sim::TcpHost> victim_;
  std::uint64_t victim_seq_ = 0;
  util::SimTime now_;
  util::SimTime min_injection_margin_ = util::SimTime::max();
  CrossStats cross_;
  std::vector<MailboxRecord> merge_scratch_;
};

}  // namespace syndog::campaign
