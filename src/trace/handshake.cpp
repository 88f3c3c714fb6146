#include "syndog/trace/handshake.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "syndog/net/handshake.hpp"

namespace syndog::trace {

void HandshakeParams::validate() const {
  if (!(no_answer_probability >= 0.0 && no_answer_probability < 1.0)) {
    throw std::invalid_argument(
        "HandshakeParams: no_answer_probability in [0,1)");
  }
  if (!(rtt_median_s > 0.0) || !(rtt_sigma >= 0.0)) {
    throw std::invalid_argument("HandshakeParams: bad timing parameters");
  }
}

std::size_t ConnectionTrace::total_syns() const {
  std::size_t n = 0;
  for (const Handshake& hs : handshakes) n += hs.syn_times.size();
  return n;
}

std::size_t ConnectionTrace::total_syn_acks() const {
  std::size_t n = 0;
  for (const Handshake& hs : handshakes) n += hs.answered() ? 1 : 0;
  return n;
}

LossProcess::LossProcess(double base_probability) : base_(base_probability) {
  if (!(base_ >= 0.0 && base_ < 1.0)) {
    throw std::invalid_argument("LossProcess: base probability in [0,1)");
  }
}

void LossProcess::add_window(util::SimTime start, util::SimTime duration,
                             double probability) {
  if (duration <= util::SimTime::zero() ||
      !(probability >= 0.0 && probability < 1.0)) {
    throw std::invalid_argument("LossProcess: bad window");
  }
  windows_.push_back(Window{start, start + duration, probability});
  std::sort(windows_.begin(), windows_.end(),
            [](const Window& a, const Window& b) { return a.start < b.start; });
}

double LossProcess::at(util::SimTime at) const {
  double p = base_;
  for (const Window& w : windows_) {
    if (w.start > at) break;
    if (at < w.end) p = std::max(p, w.probability);
  }
  return p;
}

LossProcess LossProcess::with_random_disruptions(
    double base_probability, util::SimTime duration, double events_per_hour,
    double mean_event_seconds, double event_p, util::Rng& rng,
    double max_event_seconds) {
  LossProcess loss(base_probability);
  if (events_per_hour <= 0.0) return loss;
  const double mean_gap_s = 3600.0 / events_per_hour;
  double t = rng.exponential_mean(mean_gap_s);
  const double end = duration.to_seconds();
  while (t < end) {
    double len = std::max(rng.exponential_mean(mean_event_seconds), 0.5);
    if (max_event_seconds > 0.0) len = std::min(len, max_event_seconds);
    loss.add_window(util::SimTime::from_seconds(t),
                    util::SimTime::from_seconds(len), event_p);
    t += len + rng.exponential_mean(mean_gap_s);
  }
  return loss;
}

ConnectionTrace generate_trace(const ArrivalModel& arrivals,
                               util::SimTime duration,
                               const HandshakeParams& params,
                               Direction direction, util::Rng& rng) {
  return generate_trace(arrivals, duration, params,
                        LossProcess{params.no_answer_probability}, direction,
                        rng);
}

ConnectionTrace generate_trace(const ArrivalModel& arrivals,
                               util::SimTime duration,
                               const HandshakeParams& params,
                               const LossProcess& loss, Direction direction,
                               util::Rng& rng) {
  params.validate();
  ConnectionTrace trace;
  trace.duration = duration;
  const std::vector<util::SimTime> starts = arrivals.generate(duration, rng);
  trace.handshakes.reserve(starts.size());

  const double mu = std::log(params.rtt_median_s);
  for (util::SimTime start : starts) {
    Handshake hs;
    hs.direction = direction;
    util::SimTime at = start;
    for (int attempt = 0; attempt <= net::kHandshakeRetransmissions;
         ++attempt) {
      hs.syn_times.push_back(at);
      if (!rng.bernoulli(loss.at(at))) {
        const double rtt = rng.lognormal(mu, params.rtt_sigma);
        hs.syn_ack_time = at + util::SimTime::from_seconds(rtt);
        break;
      }
      at += net::handshake_rto(attempt);
    }
    trace.handshakes.push_back(std::move(hs));
  }
  return trace;
}

ConnectionTrace merge_traces(ConnectionTrace a, ConnectionTrace b) {
  if (a.duration != b.duration) {
    throw std::invalid_argument("merge_traces: duration mismatch");
  }
  ConnectionTrace out;
  out.duration = a.duration;
  out.handshakes.reserve(a.handshakes.size() + b.handshakes.size());
  std::merge(std::make_move_iterator(a.handshakes.begin()),
             std::make_move_iterator(a.handshakes.end()),
             std::make_move_iterator(b.handshakes.begin()),
             std::make_move_iterator(b.handshakes.end()),
             std::back_inserter(out.handshakes),
             [](const Handshake& x, const Handshake& y) {
               return x.first_syn() < y.first_syn();
             });
  return out;
}

double expected_syns_per_attempt(double p) {
  double sum = 0.0;
  double pk = 1.0;
  for (int k = 0; k <= net::kHandshakeRetransmissions; ++k) {
    sum += pk;
    pk *= p;
  }
  return sum;
}

double answer_probability(double p) {
  return 1.0 - std::pow(p, net::kHandshakeRetransmissions + 1);
}

double normalized_difference_mean(double p) {
  const double answered = answer_probability(p);
  if (answered <= 0.0) return std::numeric_limits<double>::infinity();
  return (expected_syns_per_attempt(p) - answered) / answered;
}

}  // namespace syndog::trace
