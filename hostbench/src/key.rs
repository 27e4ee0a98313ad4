//! Simulated configurations ("cells") rebuilt from their journal keys, so
//! every workload times exactly the cells its sweep drivers journaled.

use std::collections::HashMap;

use dirext_sim::core::config::Consistency;
use dirext_sim::core::{DirOrg, ProtocolKind};
use dirext_sim::experiments::journal::JournalScan;
use dirext_sim::memsys::Timing;
use dirext_sim::stats::Metrics;
use dirext_sim::trace::{NodeId, Workload};
use dirext_sim::{MachineConfig, NetworkKind, NodeFaultEvent, NodeFaultPlan};

/// A workload's generated inputs, by application name and machine size.
pub type Inputs = HashMap<(String, usize), Workload>;

/// The inputs in a fixed order: by application name, then machine size.
pub fn sorted(inputs: &Inputs) -> Vec<&Workload> {
    let mut keys: Vec<&(String, usize)> = inputs.keys().collect();
    keys.sort();
    keys.into_iter().map(|k| &inputs[k]).collect()
}

/// One journaled cell, rebuilt.
pub struct Cell<'a> {
    pub key: &'a str,
    pub workload: &'a Workload,
    pub network: NetworkKind,
    pub dir: DirOrg,
    pub cfg: MachineConfig,
}

/// Parses
/// `driver/APP@procs.events.refs/PROTOCOL/CONS/NET/VARIANT/f=none[/dir=ORG][/nf=dD:n@c-r,...]`
/// back into the machine the sweep ran. Message-fault keys do not occur in
/// the benchmark's sweeps and are refused.
pub fn parse_key<'a>(key: &'a str, inputs: &'a Inputs) -> Result<Cell<'a>, String> {
    let bad = |why: &str| format!("cell key {key}: {why}");
    let parts: Vec<&str> = key.split('/').collect();
    let [_driver, app, proto, cons, net, variant, "f=none", ref rest @ ..] = parts[..] else {
        return Err(bad("unexpected shape"));
    };
    let (name, sizes) = app.split_once('@').ok_or_else(|| bad("no @"))?;
    let sizes: Vec<usize> = sizes
        .split('.')
        .map(|s| s.parse().map_err(|_| bad("bad size")))
        .collect::<Result<_, _>>()?;
    let [procs, events, refs] = sizes[..] else {
        return Err(bad("bad sizes"));
    };
    let workload = inputs
        .get(&(name.to_owned(), procs))
        .ok_or_else(|| bad("input not generated"))?;
    if workload.total_events() != events || workload.total_data_refs() != refs {
        return Err(bad("regenerated input differs in size"));
    }
    let kind = ProtocolKind::ALL
        .into_iter()
        .find(|k| k.name() == proto)
        .ok_or_else(|| bad("protocol"))?;
    let consistency = match cons {
        "RC" => Consistency::Rc,
        "SC" => Consistency::Sc,
        _ => return Err(bad("consistency")),
    };
    let bits = |prefix: &str| net.strip_prefix(prefix).and_then(|b| b.parse::<u32>().ok());
    let network = if net == "uniform" {
        NetworkKind::Uniform
    } else if let Some(link_bits) = bits("hmesh") {
        NetworkKind::HierMesh { link_bits }
    } else if let Some(link_bits) = bits("mesh") {
        NetworkKind::Mesh { link_bits }
    } else if let Some(link_bits) = bits("ring") {
        NetworkKind::Ring { link_bits }
    } else {
        return Err(bad("network"));
    };
    // The sensitivity sweep's timing variants, by their journal tags.
    let timing = match variant {
        "base" => None,
        "flwb4-slwb4" => Some(Timing::paper_default().with_small_buffers()),
        "slc16k" => Some(Timing::paper_default().with_limited_slc()),
        _ => return Err(bad("variant")),
    };
    let mut dir = DirOrg::FullMap;
    let mut node_fault = None;
    for seg in rest {
        if let Some(org) = seg.strip_prefix("dir=") {
            dir = DirOrg::parse(org).ok_or_else(|| bad("directory"))?;
        } else if let Some(plan) = seg.strip_prefix("nf=") {
            node_fault = Some(parse_node_faults(plan).ok_or_else(|| bad("node faults"))?);
        } else {
            return Err(bad("unknown segment"));
        }
    }
    let mut cfg = MachineConfig::new(procs, kind.config(consistency))
        .with_network(network)
        .with_dir_org(dir);
    if let Some(t) = timing {
        cfg = cfg.with_timing(t);
    }
    if let Some(plan) = node_fault {
        cfg = cfg.with_node_faults(plan);
    }
    Ok(Cell {
        key,
        workload,
        network,
        dir,
        cfg,
    })
}

/// Parses `dD:n@c-r,n@c-r,...`: the detection delay, then each node's
/// crash and recovery cycles.
fn parse_node_faults(text: &str) -> Option<NodeFaultPlan> {
    let (delay, windows) = text.split_once(':')?;
    let detect_delay = delay.strip_prefix('d')?.parse().ok()?;
    let events = windows
        .split(',')
        .map(|w| {
            let (node, span) = w.split_once('@')?;
            let (crash_at, recover_at) = span.split_once('-')?;
            Some(NodeFaultEvent {
                node: NodeId(node.parse().ok()?),
                crash_at: crash_at.parse().ok()?,
                recover_at: recover_at.parse().ok()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(NodeFaultPlan {
        events,
        detect_delay,
    })
}

/// Every completed cell of a scanned journal, rebuilt, in key order, with
/// the statistics the sweep journaled for it. A journal with a failed cell
/// or none at all is an error.
pub fn journal_cells<'a>(
    scan: &'a JournalScan,
    inputs: &'a Inputs,
) -> Result<(Vec<Cell<'a>>, Vec<Metrics>), String> {
    if let Some(key) = scan.failed.keys().min() {
        return Err(format!("the journal records a failed cell: {key}"));
    }
    if scan.completed.is_empty() {
        return Err("the journal holds no cells".to_owned());
    }
    let mut keys: Vec<&String> = scan.completed.keys().collect();
    keys.sort();
    let mut cells = Vec::new();
    let mut expected = Vec::new();
    for key in keys {
        cells.push(parse_key(key, inputs)?);
        expected.push(scan.completed[key].metrics.clone());
    }
    Ok((cells, expected))
}
