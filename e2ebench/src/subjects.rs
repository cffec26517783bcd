//! Generated inputs. The programs under test only ever see the files
//! written from here.
//!
//! The main subject is the all-electrical System-B build (`sysb-e`): the
//! workload generator's System B carries the paper's 230 design elements,
//! but most are scope taps and software blocks with no electrical
//! footprint, so its MNA matrix is tiny. Here all 230 blocks have a stamp:
//! 32 power rails (source → diode → inductor → sensor → MCU load, with a
//! filter capacitor) cross-tied by resistors and shunted on a few rails.
//! It lowers to 129 nodes and 298 injection cases, the matrix size the
//! sparse solver exists for. Smaller rail counts give the serve pool its
//! spread of model sizes.

use decisive::blocks::{text, BlockDiagram, BlockId, BlockKind, Port};
use decisive::ssam::model::SsamModel;
use decisive::workload::sets;

use crate::rng::Rng;

/// Rails of the System-B-sized subject.
pub const SYSB_RAILS: usize = 32;

/// Failure modes of one reliability type: `(mode, share)`.
type Modes = &'static [(&'static str, f64)];

/// Reliability types of the rail designs: `(type, FIT, modes)`.
const RELIABILITY: [(&str, f64, Modes); 5] = [
    ("Diode", 10.0, &[("Open", 0.3), ("Short", 0.7)]),
    ("Capacitor", 2.0, &[("Open", 0.3), ("Short", 0.7)]),
    ("Inductor", 15.0, &[("Open", 0.3), ("Short", 0.7)]),
    ("Resistor", 5.0, &[("Open", 0.3), ("Short", 0.7)]),
    ("MC", 300.0, &[("RAM Failure", 1.0)]),
];

/// One revision of a rail design: every value an edit can touch. The
/// block names are stable across revisions (`R3_DC`, `TIE3`, `SH3`), so
/// an edit changes exactly the blocks it names.
#[derive(Debug, Clone, PartialEq)]
pub struct RailDesign {
    /// Diagram name.
    pub name: String,
    /// Source voltage of each rail.
    pub volts: Vec<f64>,
    /// Cross-tie resistance between rail `i` and `i + 1`.
    pub tie_ohms: Vec<f64>,
    /// Shunt resistance on rail `i`, when that rail has one.
    pub shunts: Vec<Option<f64>>,
    /// FIT per reliability type, in [`RELIABILITY`] order.
    pub fits: Vec<f64>,
}

impl RailDesign {
    /// A `rails`-rail design whose values are jittered by `seed` within a
    /// few percent: enough to make every seed's files differ, too little
    /// to move the convergence behaviour or the shape of the work.
    pub fn new(name: &str, rails: usize, seed: u64) -> RailDesign {
        assert!(rails >= 2, "a rail design cross-ties at least two rails");
        let mut rng = Rng::new(seed, name);
        // 230 blocks at 32 rails: 1 ground + 6 per rail + 31 ties + 6 shunts.
        let shunted = (rails * 6 / 32).max(1);
        RailDesign {
            name: name.to_owned(),
            volts: (0..rails).map(|_| 5.0 * rng.range(0.98, 1.02)).collect(),
            tie_ohms: (1..rails).map(|_| 10.0 * rng.range(0.9, 1.1)).collect(),
            shunts: (0..rails)
                .map(|i| (i < shunted).then(|| 470.0 * rng.range(0.9, 1.1)))
                .collect(),
            fits: RELIABILITY.iter().map(|(_, fit, _)| fit * rng.range(0.9, 1.1)).collect(),
        }
    }

    /// The System-B-sized subject.
    pub fn sysb(seed: u64) -> RailDesign {
        RailDesign::new("sysb-e", SYSB_RAILS, seed)
    }

    /// Number of rails.
    pub fn rails(&self) -> usize {
        self.volts.len()
    }

    /// The block diagram of this revision.
    pub fn diagram(&self) -> BlockDiagram {
        let ok = "rail wiring only names blocks it just added";
        let mut d = BlockDiagram::new(self.name.as_str());
        let gnd = d.add_block("GND", BlockKind::Ground);
        let mut outputs: Vec<BlockId> = Vec::with_capacity(self.rails());
        for (i, &volts) in self.volts.iter().enumerate() {
            let p = format!("R{i}");
            let dc = d.add_block(format!("{p}_DC"), BlockKind::DcVoltageSource { volts });
            let diode = d.add_block(format!("{p}_D"), BlockKind::Diode);
            let ind = d.add_block(format!("{p}_L"), BlockKind::Inductor { henries: 1e-3 });
            let cap = d.add_block(format!("{p}_C"), BlockKind::Capacitor { farads: 10e-6 });
            let cs = d.add_block(format!("{p}_CS"), BlockKind::CurrentSensor);
            let mc = d.add_block(
                format!("{p}_MC"),
                BlockKind::Mcu { on_amps: 0.1, brownout_volts: 3.0, fault_amps: 0.02 },
            );
            d.connect(dc, Port(0), diode, Port(0)).expect(ok);
            d.connect(diode, Port(1), ind, Port(0)).expect(ok);
            d.connect(ind, Port(1), cs, Port(0)).expect(ok);
            d.connect(cs, Port(1), mc, Port(0)).expect(ok);
            d.connect(mc, Port(1), gnd, Port(0)).expect(ok);
            d.connect(dc, Port(1), gnd, Port(0)).expect(ok);
            d.connect(cap, Port(0), dc, Port(0)).expect(ok);
            d.connect(cap, Port(1), gnd, Port(0)).expect(ok);
            outputs.push(mc);
        }
        for (i, &ohms) in self.tie_ohms.iter().enumerate() {
            let tie = d.add_block(format!("TIE{i}"), BlockKind::Resistor { ohms });
            d.connect(tie, Port(0), outputs[i], Port(0)).expect(ok);
            d.connect(tie, Port(1), outputs[i + 1], Port(0)).expect(ok);
        }
        for (i, shunt) in self.shunts.iter().enumerate() {
            if let Some(ohms) = *shunt {
                let sh = d.add_block(format!("SH{i}"), BlockKind::Resistor { ohms });
                d.connect(sh, Port(0), outputs[i], Port(0)).expect(ok);
                d.connect(sh, Port(1), gnd, Port(0)).expect(ok);
            }
        }
        d
    }

    /// The `.bd` text of this revision.
    pub fn bd_text(&self) -> String {
        text::to_text(&self.diagram())
    }

    /// The reliability CSV of this revision.
    pub fn reliability_csv(&self) -> String {
        let mut out = String::from("Component,FIT,Failure_Mode,Distribution\n");
        for ((kind, _, modes), fit) in RELIABILITY.iter().zip(&self.fits) {
            for (mode, share) in modes.iter() {
                out.push_str(&format!("{kind},{fit},{mode},{share}\n"));
            }
        }
        out
    }

    /// Scales one source voltage or resistance by a factor in
    /// `[0.8, 1.25]`: a one-parameter edit.
    pub fn edit_param(&mut self, rng: &mut Rng) {
        let factor = rng.range(0.8, 1.25);
        let shunted: Vec<usize> = (0..self.rails()).filter(|&i| self.shunts[i].is_some()).collect();
        match rng.below(3) {
            0 => {
                let i = rng.below(self.volts.len());
                self.volts[i] *= factor;
            }
            1 if !shunted.is_empty() => {
                let i = shunted[rng.below(shunted.len())];
                self.shunts[i] = self.shunts[i].map(|ohms| ohms * factor);
            }
            _ => {
                let i = rng.below(self.tie_ohms.len());
                self.tie_ohms[i] *= factor;
            }
        }
    }

    /// Scales one reliability type's FIT by a factor in `[0.8, 1.25]`.
    pub fn edit_fit(&mut self, rng: &mut Rng) {
        let i = rng.below(self.fits.len());
        self.fits[i] *= rng.range(0.8, 1.25);
    }

    /// Adds or removes the shunt of one rail: a structural edit.
    pub fn edit_structure(&mut self, rng: &mut Rng) {
        let i = rng.below(self.rails());
        self.shunts[i] = match self.shunts[i] {
            Some(_) => None,
            None => Some(470.0 * rng.range(0.9, 1.1)),
        };
    }
}

/// The repository's brown-out-at-threshold supply, whose drifted
/// resistor needs the solver's recovery ladder: `(bd text, reliability)`.
pub fn brownout() -> (String, String) {
    let (diagram, _) = decisive::blocks::gallery::brownout_threshold_supply();
    let csv = "Component,FIT,Failure_Mode,Distribution\nResistor,5,Drift,1\nMC,300,RAM Failure,1\n";
    (text::to_text(&diagram), csv.to_owned())
}

/// The fleet's models: `set1` instances of Table VI's Set1 and `set3` of
/// its Set3, as the workload generator makes them for `seed`, named
/// `set1-00`, ..., `set3-00`, ....
///
/// The generator gives each instance one of five redundant-bundle widths
/// (0–4 quarters of its components), each equally likely, and the width
/// sets most of an instance's cost. Each set is drawn evenly over the
/// five widths — the mix in expectation, made exact — so that every seed
/// sweeps the same shapes and only the FIT values and instance numbers
/// change.
pub fn fleet_models(set1: usize, set3: usize, seed: u64) -> Vec<(String, SsamModel)> {
    let mut out = stratified("Set1", set1, seed);
    out.extend(stratified("Set3", set3, seed));
    out
}

/// `count` instances of a Table VI set, as evenly spread over the five
/// bundle widths as `count` allows.
fn stratified(set_name: &str, count: usize, seed: u64) -> Vec<(String, SsamModel)> {
    let set = sets::set_by_name(set_name).expect("a Table VI set");
    let mut quota: Vec<usize> = (0..5).map(|w| count / 5 + usize::from(w < count % 5)).collect();
    let mut out = Vec::with_capacity(count);
    let mut instance = 0u64;
    while out.len() < count {
        let (model, top) = sets::instance_model(&set, instance, seed);
        let children = &model.components[top].children;
        // Bundle components are named `r<k>`, chain links `c<k>`.
        let bundle =
            children.iter().filter(|&&c| model.components[c].core.name.value().starts_with('r'));
        let width = (bundle.count() * 4 + children.len() / 2) / children.len();
        if quota[width] > 0 {
            quota[width] -= 1;
            let name = format!("{}-{:02}", set_name.to_ascii_lowercase(), out.len());
            out.push((name, model));
        }
        instance += 1;
        assert!(instance < 10_000, "the {set_name} generator stopped producing every width");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysb_has_the_system_b_shape() {
        let design = RailDesign::sysb(1);
        let diagram = design.diagram();
        assert_eq!(diagram.block_count(), 230);
        let lowered = decisive::blocks::to_circuit(&diagram).expect("subject lowers");
        assert_eq!(lowered.circuit.node_count(), 129);
        let reliability =
            decisive::core::reliability::ReliabilityDb::from_csv_str(&design.reliability_csv())
                .expect("generated reliability parses");
        let cases = decisive::core::fmea::injection::candidates(&diagram, &reliability).len();
        assert_eq!(cases, 298);
    }

    #[test]
    fn one_seed_always_yields_the_same_files() {
        let a = RailDesign::sysb(7);
        let b = RailDesign::sysb(7);
        assert_eq!(a.bd_text(), b.bd_text());
        assert_eq!(a.reliability_csv(), b.reliability_csv());
        assert_ne!(a.bd_text(), RailDesign::sysb(8).bd_text());
        let parsed = text::from_text(&a.bd_text()).expect("written text parses");
        assert_eq!(text::to_text(&parsed), a.bd_text());
        let fleet = |seed| {
            fleet_models(2, 5, seed)
                .iter()
                .map(|(name, m)| {
                    let value = decisive::core::persist::artefact_to_value(m).expect("model");
                    format!("{name}:{}", decisive::federation::json::to_string(&value))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(fleet(3), fleet(3));
    }
}
