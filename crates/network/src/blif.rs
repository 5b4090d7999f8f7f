//! BLIF (Berkeley Logic Interchange Format) reading and writing.
//!
//! The standard interchange format of academic logic-synthesis flows
//! (ABC, SIS, mockturtle). Networks here are 2-LUT networks, so the
//! writer emits one `.names` table per gate (plus inverters for
//! complemented outputs), and the reader accepts `.names` tables of up
//! to two inputs — buffers, inverters, constants, and 2-LUTs — which is
//! exactly what the writer produces and what 2-LUT flows exchange.

use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::error::NetworkError;
use crate::network::{Network, Sig};

/// Errors raised while parsing BLIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseBlifError {
    /// A directive other than the supported subset was found.
    UnsupportedDirective {
        /// The directive (e.g. `.latch`).
        directive: String,
    },
    /// A `.names` table has more than two inputs.
    TooManyInputs {
        /// The table's output signal name.
        output: String,
        /// Number of inputs declared.
        inputs: usize,
    },
    /// A cube row is malformed.
    BadCube {
        /// The offending line.
        line: String,
    },
    /// A signal is referenced before (or without) being defined.
    UndefinedSignal {
        /// The signal name.
        name: String,
    },
    /// The file ends without `.model`/`.inputs`/`.outputs` structure.
    MissingStructure,
    /// Network construction failed.
    Network(String),
}

impl fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseBlifError::UnsupportedDirective { directive } => {
                write!(f, "unsupported blif directive {directive}")
            }
            ParseBlifError::TooManyInputs { output, inputs } => {
                write!(f, "names table for {output} has {inputs} inputs, only 2-LUTs are supported")
            }
            ParseBlifError::BadCube { line } => write!(f, "malformed cube line {line:?}"),
            ParseBlifError::UndefinedSignal { name } => write!(f, "undefined signal {name}"),
            ParseBlifError::MissingStructure => {
                write!(f, "missing .model/.inputs/.outputs structure")
            }
            ParseBlifError::Network(e) => write!(f, "network construction failed: {e}"),
        }
    }
}

impl Error for ParseBlifError {}

impl From<NetworkError> for ParseBlifError {
    fn from(e: NetworkError) -> Self {
        ParseBlifError::Network(e.to_string())
    }
}

impl Network {
    /// Renders the network as BLIF.
    ///
    /// Inputs are named `x1 … xn`, gates `n<i>`, outputs `f1 … fm`;
    /// complemented output edges become explicit inverter tables.
    pub fn to_blif(&self, model: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, ".model {model}");
        let inputs: Vec<String> = (0..self.num_inputs()).map(|i| format!("x{}", i + 1)).collect();
        let _ = writeln!(out, ".inputs {}", inputs.join(" "));
        let outputs: Vec<String> =
            (0..self.outputs().len()).map(|k| format!("f{}", k + 1)).collect();
        let _ = writeln!(out, ".outputs {}", outputs.join(" "));
        let name_of = |idx: usize| -> String {
            if idx == 0 {
                "const0".to_string()
            } else if idx <= self.num_inputs() {
                format!("x{idx}")
            } else {
                format!("n{idx}")
            }
        };
        // Constant-zero driver, only if some output or gate reads it.
        let const_used = self.outputs().iter().any(|s| s.index() == 0);
        if const_used {
            let _ = writeln!(out, ".names const0");
        }
        for (i, gate) in self.gates().iter().enumerate() {
            let idx = 1 + self.num_inputs() + i;
            let _ = writeln!(
                out,
                ".names {} {} {}",
                name_of(gate.fanin[0]),
                name_of(gate.fanin[1]),
                name_of(idx)
            );
            for (a, b) in [(0u8, 0u8), (1, 0), (0, 1), (1, 1)] {
                if (gate.tt2 >> (a + 2 * b)) & 1 == 1 {
                    let _ = writeln!(out, "{a}{b} 1");
                }
            }
        }
        for (k, sig) in self.outputs().iter().enumerate() {
            let src = name_of(sig.index());
            let dst = format!("f{}", k + 1);
            let _ = writeln!(out, ".names {src} {dst}");
            let _ = writeln!(out, "{} 1", if sig.is_negated() { 0 } else { 1 });
        }
        let _ = writeln!(out, ".end");
        out
    }

    /// Parses a BLIF model into a network.
    ///
    /// Supported: `.model`, `.inputs`, `.outputs`, `.names` tables with
    /// at most two inputs (single-output cover, `1` output plane), and
    /// `.end`. Tables must appear after the signals they read (the
    /// standard topological convention).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseBlifError`] describing the first problem found.
    pub fn from_blif(text: &str) -> Result<Network, ParseBlifError> {
        // Join continuation lines and strip comments. A line is borrowed
        // from `text` unless it continues onto the next one.
        let mut lines: Vec<Cow<'_, str>> = Vec::new();
        let mut pending = String::new();
        for raw in text.lines() {
            let piece = raw.split('#').next().unwrap_or("").trim_end();
            if let Some(head) = piece.strip_suffix('\\') {
                pending.push_str(head);
                pending.push(' ');
                continue;
            }
            let line = if pending.is_empty() {
                Cow::Borrowed(piece.trim())
            } else {
                pending.push_str(piece);
                let joined = Cow::Owned(pending.trim().to_string());
                pending.clear();
                joined
            };
            if !line.is_empty() {
                lines.push(line);
            }
        }
        let mut inputs: Vec<&str> = Vec::new();
        let mut outputs: Vec<&str> = Vec::new();
        // Every table's cubes, (mask, output value), in one list.
        let mut cubes: Vec<(&str, char)> = Vec::new();
        let mut tables: Vec<Table<'_>> = Vec::new();
        let mut i = 0usize;
        let mut saw_model = false;
        while i < lines.len() {
            let line = &lines[i];
            let mut parts = line.split_whitespace();
            let head = parts.next().unwrap_or("");
            match head {
                ".model" => saw_model = true,
                ".inputs" => inputs.extend(parts),
                ".outputs" => outputs.extend(parts),
                ".names" => {
                    let mut names = [""; 3];
                    let mut count = 0usize;
                    for name in parts {
                        if count < names.len() {
                            names[count] = name;
                        }
                        count += 1;
                    }
                    if count == 0 {
                        return Err(ParseBlifError::BadCube { line: line.to_string() });
                    }
                    let ins = count - 1;
                    if ins > 2 {
                        let output = line.split_whitespace().last().expect("non-empty");
                        return Err(ParseBlifError::TooManyInputs {
                            output: output.to_string(),
                            inputs: ins,
                        });
                    }
                    let first_cube = cubes.len();
                    while i + 1 < lines.len() && !lines[i + 1].starts_with('.') {
                        i += 1;
                        let cube_line = &lines[i];
                        let mut cp = cube_line.split_whitespace();
                        let (mask, val) = match (cp.next(), cp.next()) {
                            (Some(v), None) if ins == 0 => ("", v),
                            (Some(m), Some(v)) => (m, v),
                            _ => {
                                return Err(ParseBlifError::BadCube { line: cube_line.to_string() })
                            }
                        };
                        let value = val.chars().next().unwrap_or('1');
                        if mask.len() != ins {
                            return Err(ParseBlifError::BadCube { line: cube_line.to_string() });
                        }
                        cubes.push((mask, value));
                    }
                    tables.push(Table {
                        inputs: [names[0], names[1]],
                        arity: ins,
                        output: names[ins],
                        cubes: first_cube..cubes.len(),
                    });
                }
                ".end" => break,
                other => {
                    return Err(ParseBlifError::UnsupportedDirective {
                        directive: other.to_string(),
                    })
                }
            }
            i += 1;
        }
        if !saw_model || outputs.is_empty() {
            return Err(ParseBlifError::MissingStructure);
        }
        let mut net = Network::new(inputs.len());
        let mut env: HashMap<&str, Sig> = HashMap::with_capacity(inputs.len() + tables.len());
        for (k, &name) in inputs.iter().enumerate() {
            env.insert(name, net.input(k));
        }
        let lookup = |env: &HashMap<&str, Sig>, name: &str| {
            env.get(name)
                .copied()
                .ok_or_else(|| ParseBlifError::UndefinedSignal { name: name.to_string() })
        };
        for table in &tables {
            let cubes = &cubes[table.cubes.clone()];
            let sig = match table.arity {
                0 => {
                    // Constant: true iff some cube outputs 1.
                    if cubes.iter().any(|&(_, v)| v == '1') {
                        Sig::TRUE
                    } else {
                        Sig::FALSE
                    }
                }
                1 => {
                    let src = lookup(&env, table.inputs[0])?;
                    // Evaluate the single-input cover at 0 and 1.
                    let eval = |bit: u8| -> bool {
                        cubes.iter().any(|&(m, v)| {
                            v == '1' && (m.as_bytes()[0] == bit || m.starts_with('-'))
                        })
                    };
                    match (eval(b'0'), eval(b'1')) {
                        (false, false) => Sig::FALSE,
                        (true, true) => Sig::TRUE,
                        (false, true) => src,
                        (true, false) => src.not(),
                    }
                }
                _ => {
                    let a = lookup(&env, table.inputs[0])?;
                    let b = lookup(&env, table.inputs[1])?;
                    // Build the 4-bit table from the cover.
                    let mut tt2 = 0u8;
                    for (av, bv) in [(0u8, 0u8), (1, 0), (0, 1), (1, 1)] {
                        let covered = cubes.iter().any(|&(m, v)| {
                            v == '1' && {
                                let mb = m.as_bytes();
                                (mb[0] == b'-' || mb[0].wrapping_sub(b'0') == av)
                                    && (mb[1] == b'-' || mb[1].wrapping_sub(b'0') == bv)
                            }
                        });
                        if covered {
                            tt2 |= 1 << (av + 2 * bv);
                        }
                    }
                    net.add_gate(a, b, tt2)?
                }
            };
            env.insert(table.output, sig);
        }
        for &name in &outputs {
            net.add_output(lookup(&env, name)?);
        }
        Ok(net)
    }
}

/// One `.names` table, borrowing its names from the BLIF text.
struct Table<'a> {
    /// The input names; the first `arity` are used.
    inputs: [&'a str; 2],
    arity: usize,
    output: &'a str,
    /// The table's range in the shared cube list.
    cubes: std::ops::Range<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample() -> Network {
        let mut net = Network::new(3);
        let (a, b, c) = (net.input(0), net.input(1), net.input(2));
        let ab = net.and(a, b).unwrap();
        let f = net.xor(ab, c).unwrap();
        net.add_output(f);
        net.add_output(f.not());
        net
    }

    #[test]
    fn writer_emits_expected_structure() {
        let blif = sample().to_blif("test");
        assert!(blif.starts_with(".model test"));
        assert!(blif.contains(".inputs x1 x2 x3"));
        assert!(blif.contains(".outputs f1 f2"));
        assert!(blif.contains(".names"));
        assert!(blif.trim_end().ends_with(".end"));
    }

    #[test]
    fn round_trip_preserves_functions() {
        let net = sample();
        let parsed = Network::from_blif(&net.to_blif("t")).unwrap();
        assert_eq!(parsed.simulate_outputs().unwrap(), net.simulate_outputs().unwrap());
    }

    #[test]
    fn round_trip_random_networks() {
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let net = crate::circuits::random_network(4, 12, 3, &mut rng).unwrap();
            let parsed = Network::from_blif(&net.to_blif("r")).unwrap();
            assert_eq!(
                parsed.simulate_outputs().unwrap(),
                net.simulate_outputs().unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn parses_hand_written_blif() {
        let text = "\
# a comment
.model adder
.inputs a b
.outputs s c
.names a b s
10 1
01 1
.names a b c
11 1
.end
";
        let net = Network::from_blif(text).unwrap();
        let outs = net.simulate_outputs().unwrap();
        assert_eq!(outs[0].to_hex(), "6"); // XOR
        assert_eq!(outs[1].to_hex(), "8"); // AND
    }

    #[test]
    fn parses_dont_care_cubes() {
        let text = ".model t\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n-1 1\n.end\n";
        let net = Network::from_blif(text).unwrap();
        assert_eq!(net.simulate_outputs().unwrap()[0].to_hex(), "e"); // OR
    }

    #[test]
    fn parses_constants_and_buffers() {
        let text = "\
.model t
.inputs a
.outputs f g h
.names k1
1
.names a buf
1 1
.names buf inv
0 1
.names k1 inv f
11 1
.names buf g
1 1
.names k1 h
1 1
.end
";
        let net = Network::from_blif(text).unwrap();
        let outs = net.simulate_outputs().unwrap();
        assert_eq!(outs[0].to_hex(), "1"); // f = 1 & !a = !a
        assert_eq!(outs[1].to_hex(), "2"); // g = a
        assert_eq!(outs[2].to_hex(), "3"); // h = const 1
    }

    #[test]
    fn rejects_unsupported_content() {
        assert!(matches!(
            Network::from_blif(".model t\n.inputs a\n.outputs f\n.latch a f\n.end\n"),
            Err(ParseBlifError::UnsupportedDirective { .. })
        ));
        assert!(matches!(
            Network::from_blif(
                ".model t\n.inputs a b c\n.outputs f\n.names a b c f\n111 1\n.end\n"
            ),
            Err(ParseBlifError::TooManyInputs { .. })
        ));
        assert!(matches!(
            Network::from_blif(".model t\n.inputs a\n.outputs f\n.names z f\n1 1\n.end\n"),
            Err(ParseBlifError::UndefinedSignal { .. })
        ));
        assert!(matches!(
            Network::from_blif("just text\n"),
            Err(ParseBlifError::UnsupportedDirective { .. })
        ));
    }

    #[test]
    fn continuation_lines_joined() {
        let text = ".model t\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n";
        let net = Network::from_blif(text).unwrap();
        assert_eq!(net.num_inputs(), 2);
        assert_eq!(net.simulate_outputs().unwrap()[0].to_hex(), "8");
    }
}
