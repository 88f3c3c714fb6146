#include "syndog/ingest/capture_source.hpp"

namespace syndog::ingest {

CaptureSource::CaptureSource(std::istream& in)
    : format_(pcap::is_pcapng(in) ? CaptureFormat::kPcapng
                                  : CaptureFormat::kPcap) {
  if (format_ == CaptureFormat::kPcapng) {
    pcapng_.emplace(in);
  } else {
    // Classic pcap; the reader throws on an unrecognized magic.
    pcap_.emplace(in);
  }
}

bool CaptureSource::next(pcap::Record& out) {
  return pcap_ ? pcap_->next_into(out) : pcapng_->next_into(out);
}

pcap::ReadEnd CaptureSource::end_state() const {
  return pcap_ ? pcap_->end_state() : pcapng_->end_state();
}

}  // namespace syndog::ingest
