//! Every accounted figure is transport-invariant: the Unix-domain-socket
//! transport, whose envelope overhead is deliberately excluded from
//! accounting, produces *bit-identical* estimates, exact totals,
//! paper-convention message counts, packets and wire bytes to the
//! in-process channels under a shared seed; and a third-party transport
//! that corrupts its links fails the run with a typed error, not a panic
//! or a hang. Mirrors `tests/chunked_equivalence.rs`, which pins the
//! ingest batching.

use dsbn::bayes::sprinkler_network;
#[cfg(unix)]
use dsbn::bayes::BayesianNetwork;
use dsbn::core::CounterLayout;
use dsbn::counters::ExactProtocol;
use dsbn::datagen::TrainingStream;
use dsbn::monitor::{
    run_cluster_on, ChannelTransport, ClusterConfig, ClusterError, DownLane, LinkClosed, Transport,
    UpPacket, UpSender,
};
#[cfg(unix)]
use dsbn::monitor::{ClusterReport, UdsTransport};

/// Run the raw exact pipeline over a transport and return the report.
#[cfg(unix)]
fn run_exact_on<T: Transport>(
    transport: &T,
    net: &BayesianNetwork,
    layout: &CounterLayout,
    config: &ClusterConfig,
    m: u64,
) -> ClusterReport {
    let protocols = vec![ExactProtocol; layout.n_counters()];
    let events = TrainingStream::new(net, 7).chunks(32, m);
    run_cluster_on(transport, &protocols, config, events, |chunk, ids| layout.map_chunk(chunk, ids))
        .expect("cluster run failed")
}

/// The Unix-domain-socket transport runs the identical protocol: every
/// accounted figure (estimates, totals, logical messages, packets, *and
/// bytes* — envelopes are excluded by design) matches the in-process
/// channel transport.
#[cfg(unix)]
#[test]
fn uds_transport_matches_channels_bit_for_bit() {
    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let m = 5_000u64;
    let config = ClusterConfig::new(3, 11).with_chunk(32);
    let chan = run_exact_on(&ChannelTransport, &net, &layout, &config, m);
    let uds = run_exact_on(&UdsTransport, &net, &layout, &config, m);
    assert_eq!(uds.events, chan.events);
    assert_eq!(uds.estimates, chan.estimates);
    assert_eq!(uds.exact_totals, chan.exact_totals);
    assert_eq!(uds.stats.up_messages, chan.stats.up_messages);
    assert_eq!(uds.stats.down_messages, chan.stats.down_messages);
    assert_eq!(uds.stats.bytes, chan.stats.bytes, "envelope bytes must not leak");
    assert_eq!(uds.stats.packets, chan.stats.packets);
}

/// A transport whose up links truncate the last byte of every update
/// payload: proves third-party `Transport` impls slot in, and that a
/// corrupted link surfaces as a typed error from `run_cluster_on` instead
/// of a panic or a hang.
struct TruncatingTransport;

struct TruncatingUp(<ChannelTransport as Transport>::UpTx);

impl UpSender for TruncatingUp {
    fn send(&mut self, pkt: UpPacket) -> Result<(), LinkClosed> {
        let pkt = match pkt {
            UpPacket::Updates { site, payload } if !payload.is_empty() => {
                let cut = payload.slice(0..payload.len() - 1);
                UpPacket::Updates { site, payload: cut }
            }
            other => other,
        };
        UpSender::send(&mut self.0, pkt)
    }
}

impl Transport for TruncatingTransport {
    type UpTx = TruncatingUp;
    type DownTx = <ChannelTransport as Transport>::DownTx;

    fn connect(
        &self,
        down_lanes: Vec<DownLane>,
        up_depth: usize,
    ) -> Result<dsbn::monitor::Fabric<Self::UpTx, Self::DownTx>, ClusterError> {
        let fabric = ChannelTransport.connect(down_lanes, up_depth)?;
        Ok(dsbn::monitor::Fabric {
            site_ups: fabric.site_ups.into_iter().map(TruncatingUp).collect(),
            driver_up: fabric.driver_up,
            coord_rx: fabric.coord_rx,
            coord_downs: fabric.coord_downs,
            pumps: fabric.pumps,
        })
    }
}

#[test]
fn corrupting_transport_fails_the_run_with_a_typed_error() {
    let net = sprinkler_network();
    let layout = CounterLayout::new(&net);
    let protocols = vec![ExactProtocol; layout.n_counters()];
    let config = ClusterConfig::new(3, 11).with_chunk(16);
    let events = TrainingStream::new(&net, 7).chunks(16, 1_000);
    let err = run_cluster_on(&TruncatingTransport, &protocols, &config, events, |chunk, ids| {
        layout.map_chunk(chunk, ids)
    })
    .unwrap_err();
    match err {
        ClusterError::Wire { source: dsbn::counters::wire::WireError::Truncated, .. } => {}
        other => panic!("expected a truncated-wire error, got {other:?}"),
    }
}
