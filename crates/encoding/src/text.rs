//! Exact-roundtrip text serialization for [`Genome`]s.
//!
//! The checkpoint/resume subsystem persists whole GA populations as
//! text; the workspace builds offline with no serialization crate, so
//! the format is hand-rolled here where the genome's structure lives. Every gene is an
//! integer or an enum, so the encoding is exact — parsing the rendered
//! string always reproduces the genome bit-for-bit.
//!
//! Grammar (one line per genome, no whitespace):
//!
//! ```text
//! genome := fanouts ( "|" layer )*
//! fanouts := u64 ( "," u64 )*
//! layer  := level ( ";" level )*
//! level  := dim "," order "," u64 "," u64 "," u64 "," u64 "," u64 "," u64
//! dim    := "K" | "C" | "Y" | "X" | "R" | "S"
//! order  := six dim letters forming a permutation
//! ```
//!
//! e.g. a two-level, one-layer genome:
//! `8,16|K,KCYXRS,4,4,16,16,3,3;Y,CKYXRS,1,4,2,16,3,3`

use crate::genome::{Genome, LayerGenes, LevelGenes};
use digamma_costmodel::MAX_LEVELS;
use digamma_workload::{Dim, DimVec, NUM_DIMS};
use std::fmt;

/// Why a genome string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenomeParseError {
    message: String,
}

impl GenomeParseError {
    fn new(message: impl Into<String>) -> GenomeParseError {
        GenomeParseError { message: message.into() }
    }
}

impl fmt::Display for GenomeParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid genome text: {}", self.message)
    }
}

impl std::error::Error for GenomeParseError {}

fn dim_from_letter(c: char) -> Result<Dim, GenomeParseError> {
    Dim::ALL
        .into_iter()
        .find(|d| d.letter() == c)
        .ok_or_else(|| GenomeParseError::new(format!("unknown dim letter {c:?}")))
}

fn parse_u64(s: &str, what: &str) -> Result<u64, GenomeParseError> {
    s.parse().map_err(|_| GenomeParseError::new(format!("bad {what}: {s:?}")))
}

fn parse_level(s: &str) -> Result<LevelGenes, GenomeParseError> {
    let fields: Vec<&str> = s.split(',').collect();
    if fields.len() != 2 + NUM_DIMS {
        return Err(GenomeParseError::new(format!(
            "level needs {} comma-separated fields, got {}",
            2 + NUM_DIMS,
            fields.len()
        )));
    }
    let mut p = fields[0].chars();
    let spatial_dim = match (p.next(), p.next()) {
        (Some(c), None) => dim_from_letter(c)?,
        _ => return Err(GenomeParseError::new(format!("bad P gene: {:?}", fields[0]))),
    };
    let letters: Vec<char> = fields[1].chars().collect();
    if letters.len() != NUM_DIMS {
        return Err(GenomeParseError::new(format!("bad order: {:?}", fields[1])));
    }
    let mut order = [Dim::K; NUM_DIMS];
    let mut seen = [false; NUM_DIMS];
    for (slot, &c) in order.iter_mut().zip(&letters) {
        let d = dim_from_letter(c)?;
        if std::mem::replace(&mut seen[d.index()], true) {
            return Err(GenomeParseError::new(format!("order repeats {c}: {:?}", fields[1])));
        }
        *slot = d;
    }
    let mut tile = DimVec::splat(1u64);
    for (i, d) in Dim::ALL.into_iter().enumerate() {
        tile[d] = parse_u64(fields[2 + i], "tile extent")?;
    }
    Ok(LevelGenes { spatial_dim, order, tile })
}

impl Genome {
    /// Renders the genome as one line of text (see the module grammar).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, f) in self.fanouts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&f.to_string());
        }
        for lg in &self.layers {
            out.push('|');
            for (li, level) in lg.levels.iter().enumerate() {
                if li > 0 {
                    out.push(';');
                }
                out.push(level.spatial_dim.letter());
                out.push(',');
                for d in level.order {
                    out.push(d.letter());
                }
                for d in Dim::ALL {
                    out.push(',');
                    out.push_str(&level.tile[d].to_string());
                }
            }
        }
        out
    }

    /// Parses a genome rendered by [`Genome::to_text`].
    ///
    /// # Errors
    ///
    /// Returns [`GenomeParseError`] on malformed input, on more than
    /// [`MAX_LEVELS`] fan-outs, and on a layer whose level count differs
    /// from the fan-out count. Other structural checks (the layer count
    /// a model needs, tile nesting) are the caller's business, exactly
    /// as with a freshly mutated genome.
    pub fn from_text(s: &str) -> Result<Genome, GenomeParseError> {
        let mut parts = s.trim().split('|');
        let fanout_part = parts.next().unwrap_or("");
        let fanouts = fanout_part
            .split(',')
            .map(|f| parse_u64(f, "fanout"))
            .collect::<Result<Vec<u64>, _>>()?;
        if fanouts.is_empty() {
            return Err(GenomeParseError::new("no fanouts"));
        }
        if fanouts.len() > MAX_LEVELS {
            return Err(GenomeParseError::new(format!(
                "{} fanouts, at most {MAX_LEVELS} levels are supported",
                fanouts.len()
            )));
        }
        let mut layers = Vec::new();
        for layer_part in parts {
            let levels =
                layer_part.split(';').map(parse_level).collect::<Result<Vec<LevelGenes>, _>>()?;
            if levels.len() != fanouts.len() {
                return Err(GenomeParseError::new(format!(
                    "layer has {} levels but genome has {} fanouts",
                    levels.len(),
                    fanouts.len()
                )));
            }
            layers.push(LayerGenes { levels: levels.into_iter().collect() });
        }
        Ok(Genome { fanouts: fanouts.into_iter().collect(), layers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_costmodel::Platform;
    use digamma_workload::zoo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_genomes_roundtrip_exactly() {
        let unique = zoo::resnet18().unique_layers();
        let mut rng = SmallRng::seed_from_u64(31);
        for levels in [2, 3] {
            for _ in 0..25 {
                let g = Genome::random(&mut rng, &unique, &Platform::cloud(), levels);
                let text = g.to_text();
                let parsed = Genome::from_text(&text).expect("rendered genomes parse");
                assert_eq!(parsed, g);
                // The rendering is canonical: re-rendering is stable.
                assert_eq!(parsed.to_text(), text);
            }
        }
    }

    #[test]
    fn text_is_single_line_without_spaces() {
        let unique = zoo::ncf().unique_layers();
        let mut rng = SmallRng::seed_from_u64(5);
        let g = Genome::random(&mut rng, &unique, &Platform::edge(), 2);
        let text = g.to_text();
        assert!(!text.contains('\n') && !text.contains(' '), "{text}");
    }

    #[test]
    fn hardware_only_genome_roundtrips() {
        let g = Genome { fanouts: [4, 8, 2].into(), layers: vec![] };
        assert_eq!(Genome::from_text(&g.to_text()).unwrap(), g);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "x",
            "8,16|K,KCYXRS,1,2,3",                             // too few fields
            "8,16|K,KCYXRS,1,2,3,4,5,x",                       // bad tile
            "8,16|Q,KCYXRS,1,2,3,4,5,6",                       // bad P gene
            "8,16|K,KKYXRS,1,2,3,4,5,6",                       // repeated order letter
            "8,16|K,KCYXR,1,2,3,4,5,6",                        // short order
            "8,16|K,KCYXRS,1,2,3,4,5,6",                       // 1 level vs 2 fanouts
            "8,16|KC,KCYXRS,1,2,3,4,5,6;K,KCYXRS,1,1,1,1,1,1", // long P gene
            "1,2,2,2|K,KCYXRS,1,1,1,1,1,1;K,KCYXRS,1,1,1,1,1,1;K,KCYXRS,1,1,1,1,1,1;K,KCYXRS,1,1,1,1,1,1", // 4 levels
        ] {
            assert!(Genome::from_text(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn example_from_grammar_parses() {
        let g = Genome::from_text("8,16|K,KCYXRS,4,4,16,16,3,3;Y,CKYXRS,1,4,2,16,3,3").unwrap();
        assert_eq!(*g.fanouts, [8, 16]);
        assert_eq!(g.layers.len(), 1);
        assert_eq!(g.layers[0].levels[1].spatial_dim, Dim::Y);
        assert_eq!(g.layers[0].levels[1].order[0], Dim::C);
        assert_eq!(g.layers[0].levels[0].tile[Dim::Y], 16);
    }
}
