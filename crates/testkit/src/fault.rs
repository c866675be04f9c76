//! Deliberate fault injection for harness self-tests.
//!
//! The differential oracle is only trustworthy if it demonstrably *fails*
//! when the pipeline's semantics change. A [`Fault`] rewrites an
//! algorithm's source programs in a way that mimics a realistic compiler
//! bug (an off-by-one fanout, a bias exponent dropped by a bad rewrite);
//! `gsampler-fuzz --fault <name>` then has to catch the deviation against
//! the clean reference and shrink a repro, which is exactly what CI
//! asserts.

use gsampler_core::builder::Layer;
use gsampler_ir::Op;

/// Available injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Every select samples one more neighbour than requested — the
    /// classic fusion off-by-one.
    FanoutPlusOne,
    /// Bias squaring dropped: `pow(x, 2)` becomes `pow(x, 1)`, skewing
    /// every importance-sampling distribution that squares edge weights
    /// (LADIES/AS-GCN style) without breaking any shape.
    BiasSquareDropped,
}

impl Fault {
    /// Stable CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Fault::FanoutPlusOne => "fanout-plus-one",
            Fault::BiasSquareDropped => "bias-square-dropped",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Fault> {
        Some(match s {
            "fanout-plus-one" => Fault::FanoutPlusOne,
            "bias-square-dropped" => Fault::BiasSquareDropped,
            _ => return None,
        })
    }

    /// Apply the fault to an algorithm's layers in place. Returns `true`
    /// if any op was actually rewritten; a fault that does not apply to
    /// an algorithm (no matching op) leaves it untouched, and the oracle
    /// skips the faulted comparison for it.
    pub fn apply(self, layers: &mut [Layer]) -> bool {
        let mut applied = false;
        for layer in layers.iter_mut() {
            let rewrites: Vec<(usize, Op, Vec<usize>)> = layer
                .program
                .nodes()
                .iter()
                .enumerate()
                .filter_map(|(id, node)| {
                    let op = match (self, &node.op) {
                        (Fault::FanoutPlusOne, Op::IndividualSample { k }) => {
                            Op::IndividualSample { k: k + 1 }
                        }
                        (Fault::FanoutPlusOne, Op::CollectiveSample { k }) => {
                            Op::CollectiveSample { k: k + 1 }
                        }
                        (Fault::BiasSquareDropped, Op::ScalarOp(e, x))
                            if matches!(e, gsampler_matrix::EltOp::Pow) && *x == 2.0 =>
                        {
                            Op::ScalarOp(gsampler_matrix::EltOp::Pow, 1.0)
                        }
                        _ => return None,
                    };
                    Some((id, op, node.inputs.clone()))
                })
                .collect();
            for (id, op, inputs) in rewrites {
                layer.program.replace(id, op, inputs);
                applied = true;
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsampler_algos::{all_algorithms, Hyper};

    #[test]
    fn fanout_fault_applies_to_every_algorithm() {
        let h = Hyper::small();
        for spec in all_algorithms(&h) {
            let mut layers = spec.layers;
            assert!(
                Fault::FanoutPlusOne.apply(&mut layers),
                "{} has no select op to fault",
                spec.name
            );
        }
    }

    #[test]
    fn bias_fault_applies_only_where_bias_is_squared() {
        let h = Hyper::small();
        let mut hit = 0;
        for spec in all_algorithms(&h) {
            let mut layers = spec.layers;
            if Fault::BiasSquareDropped.apply(&mut layers) {
                hit += 1;
            }
        }
        assert!(hit >= 1, "no algorithm squares its bias?");
    }
}
