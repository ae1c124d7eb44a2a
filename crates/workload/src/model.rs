//! A DNN model as an ordered list of layers, with unique-layer deduplication.

use crate::layer::Layer;
use std::collections::HashMap;
use std::fmt;

/// A layer shape that occurs one or more times in a model.
///
/// Searching a mapping per *unique* shape (instead of per occurrence) is how
/// both GAMMA and DiGamma keep the genome small; repeated occurrences simply
/// multiply the latency/energy of the found mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct UniqueLayer {
    /// Representative layer (first occurrence).
    pub layer: Layer,
    /// Number of occurrences of this exact shape in the model.
    pub count: u64,
}

/// An ordered list of [`Layer`]s forming one DNN model.
///
/// # Examples
///
/// ```
/// use digamma_workload::{Layer, Model};
///
/// let model = Model::new(
///     "tiny",
///     vec![
///         Layer::conv("conv0", 16, 3, 32, 32, 3, 3, 1),
///         Layer::gemm("fc", 10, 1, 16 * 32 * 32),
///     ],
/// );
/// assert_eq!(model.layers().len(), 2);
/// assert_eq!(model.unique_layers().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    name: String,
    layers: Vec<Layer>,
}

impl Model {
    /// Creates a model from its layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(name: impl Into<String>, layers: Vec<Layer>) -> Model {
        assert!(!layers.is_empty(), "a model needs at least one layer");
        Model { name: name.into(), layers }
    }

    /// The model's name (e.g. `"resnet18"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Deduplicated layer shapes with occurrence counts, in first-seen order.
    pub fn unique_layers(&self) -> Vec<UniqueLayer> {
        let mut order: Vec<UniqueLayer> = Vec::new();
        let mut index: HashMap<_, usize> = HashMap::new();
        for layer in &self.layers {
            match index.get(&layer.shape_key()) {
                Some(&i) => order[i].count += 1,
                None => {
                    index.insert(layer.shape_key(), order.len());
                    order.push(UniqueLayer { layer: layer.clone(), count: 1 });
                }
            }
        }
        order
    }

    /// Total multiply-accumulate operations over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }

    /// Total tensor data (words) over all layers, counting each tensor once.
    pub fn total_data(&self) -> u64 {
        self.layers.iter().map(Layer::total_data).sum()
    }

    /// Model-level arithmetic intensity (MACs per word).
    pub fn arithmetic_intensity(&self) -> f64 {
        self.total_macs() as f64 / self.total_data() as f64
    }

    /// Concatenates several models into one composite workload.
    ///
    /// This is how the framework supports multi-model co-design (the
    /// paper's "takes in any DNN model(s)"): one hardware configuration
    /// is sized for the union of layers, mappings are searched per unique
    /// shape across all models, and the objective aggregates over every
    /// layer of every model. Layer names are prefixed with their model's
    /// name to stay unique.
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn concat(name: impl Into<String>, models: &[Model]) -> Model {
        assert!(!models.is_empty(), "need at least one model");
        let layers = models
            .iter()
            .flat_map(|m| {
                m.layers.iter().map(|l| {
                    let mut renamed = l.clone();
                    renamed.set_name(format!("{}/{}", m.name, l.name()));
                    renamed
                })
            })
            .collect();
        Model::new(name, layers)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} layers ({} unique), {:.2} GMACs, intensity {:.1}",
            self.name,
            self.layers.len(),
            self.unique_layers().len(),
            self.total_macs() as f64 / 1e9,
            self.arithmetic_intensity()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    fn tiny() -> Model {
        Model::new(
            "tiny",
            vec![
                Layer::conv("a", 8, 8, 8, 8, 3, 3, 1),
                Layer::conv("b", 8, 8, 8, 8, 3, 3, 1),
                Layer::gemm("c", 16, 4, 8),
            ],
        )
    }

    #[test]
    fn unique_layers_dedup_by_shape() {
        let m = tiny();
        let uniq = m.unique_layers();
        assert_eq!(uniq.len(), 2);
        assert_eq!(uniq[0].count, 2);
        assert_eq!(uniq[1].count, 1);
    }

    #[test]
    fn totals_accumulate() {
        let m = tiny();
        let expected: u64 = m.layers().iter().map(Layer::macs).sum();
        assert_eq!(m.total_macs(), expected);
        assert!(m.total_data() > 0);
        assert!(m.arithmetic_intensity() > 0.0);
    }

    #[test]
    fn unique_counts_sum_to_layer_count() {
        let m = tiny();
        let total: u64 = m.unique_layers().iter().map(|u| u.count).sum();
        assert_eq!(total as usize, m.layers().len());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_panics() {
        let _ = Model::new("empty", vec![]);
    }

    #[test]
    fn concat_merges_models_and_keeps_names_unique() {
        let a = tiny();
        let b = tiny();
        let both = Model::concat("pair", &[a.clone(), b]);
        assert_eq!(both.layers().len(), 2 * a.layers().len());
        assert_eq!(both.total_macs(), 2 * a.total_macs());
        // Shapes dedup across models: same unique set, doubled counts.
        assert_eq!(both.unique_layers().len(), a.unique_layers().len());
        assert_eq!(both.unique_layers()[0].count, 2 * a.unique_layers()[0].count);
        assert!(both.layers()[0].name().starts_with("tiny/"));
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn concat_of_nothing_panics() {
        let _ = Model::concat("none", &[]);
    }
}
