//! The multi-format model registry: named [`QuantizedMlp`] instances one
//! engine serves side by side.
//!
//! Models are keyed by **name + format descriptor** (the format's display
//! form, e.g. `posit<8,0>`), so the same logical network quantized into
//! several formats — the paper's posit/minifloat/fixed comparison — can be
//! registered under one name and addressed per format. Lookups hand out
//! `Arc` clones, so requests hold the model alive even if it is
//! unregistered mid-flight.

use deep_positron::QuantizedMlp;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// Error returned when a model cannot be registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The model's format has no EMAC datapath for at least one layer
    /// (e.g. a posit with `es > n − 3`): serving it would panic a pool
    /// worker mid-request, so registration rejects it up front.
    UnsupportedModel {
        /// The key the model would have been registered under.
        key: ModelKey,
        /// Why the format has no EMAC datapath.
        reason: String,
    },
    /// The model's layers do not form one network: it has none, or some
    /// layer's fan-out is not the next layer's fan-in. Its first forward
    /// pass would panic a pool worker, so registration rejects it.
    MalformedModel {
        /// The key the model would have been registered under.
        key: ModelKey,
        /// Which layers fail to chain.
        reason: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnsupportedModel { key, reason }
            | RegistryError::MalformedModel { key, reason } => {
                write!(f, "cannot register {key}: {reason}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Identifies one registered model: logical name plus format descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    name: String,
    format: String,
}

impl ModelKey {
    /// Builds a key from a name and a format descriptor (the
    /// `NumericFormat` display form, e.g. `posit<8,0>`, `float<4,3>`,
    /// `fixed<8,6>`, `float32`).
    pub fn new(name: impl Into<String>, format: impl Into<String>) -> Self {
        ModelKey {
            name: name.into(),
            format: format.into(),
        }
    }

    /// The logical model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The format descriptor.
    pub fn format(&self) -> &str {
        &self.format
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.name, self.format)
    }
}

/// Thread-safe registry of named quantized models across formats.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<ModelKey, Arc<QuantizedMlp>>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the model table.
    fn rd(&self) -> std::sync::RwLockReadGuard<'_, HashMap<ModelKey, Arc<QuantizedMlp>>> {
        // panic-ok: the registry lock is only poisoned if a reader/writer
        // panicked while holding it; every critical section here is a
        // HashMap operation that cannot panic, so poisoning means memory
        // corruption already happened and continuing would serve from a
        // torn table.
        self.models.read().expect("registry lock")
    }

    /// Write access to the model table.
    fn wr(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<ModelKey, Arc<QuantizedMlp>>> {
        // panic-ok: see `ModelRegistry::rd`.
        self.models.write().expect("registry lock")
    }

    /// Registers `model` under `name`, deriving the format descriptor from
    /// the model itself. Returns the key; an existing entry under the same
    /// key is replaced (in-flight requests keep their `Arc`).
    ///
    /// Shape and EMAC support are validated here, at admission: a model
    /// without layers, with layers that do not chain, or whose format has
    /// no EMAC datapath (e.g. posit `es > n − 3`) would panic inside a pool
    /// worker on its first request, poisoning that job's handle; instead it
    /// never enters the registry, so every registered model is servable.
    /// An admitted model is compiled here too
    /// ([`deep_positron::QuantizedMlp::compile`]), so no request pays for
    /// its plans.
    ///
    /// # Errors
    ///
    /// [`RegistryError::MalformedModel`] when the model has no layers or
    /// some layer's fan-out differs from the next layer's fan-in, in any
    /// format; [`RegistryError::UnsupportedModel`] when the format has no
    /// EMAC datapath at some layer's fan-in, by
    /// [`deep_positron::NumericFormat::check_emac`], which builds no unit
    /// (`F32` baseline models are fine: they serve classification through
    /// plain float math).
    pub fn register(
        &self,
        name: impl Into<String>,
        model: QuantizedMlp,
    ) -> Result<ModelKey, RegistryError> {
        let key = ModelKey::new(name, model.format.to_string());
        if let Some(reason) = malformation(&model) {
            return Err(RegistryError::MalformedModel { key, reason });
        }
        let datapath = |k: usize| model.format.check_emac(k as u64);
        if let Err(e) = model.layers.iter().try_for_each(|l| datapath(l.fan_in())) {
            return Err(RegistryError::UnsupportedModel {
                key,
                reason: e.reason().to_string(),
            });
        }
        model.compile();
        self.wr().insert(key.clone(), Arc::new(model));
        Ok(key)
    }

    /// Looks up a model by key.
    pub fn get(&self, key: &ModelKey) -> Option<Arc<QuantizedMlp>> {
        self.rd().get(key).cloned()
    }

    /// All keys registered under a logical name (one per format),
    /// sorted by format descriptor for determinism.
    pub fn formats_of(&self, name: &str) -> Vec<ModelKey> {
        let mut keys: Vec<ModelKey> = self
            .rd()
            .keys()
            .filter(|k| k.name == name)
            .cloned()
            .collect();
        keys.sort_by(|a, b| a.format.cmp(&b.format));
        keys
    }

    /// Every registered key, sorted for determinism.
    pub fn keys(&self) -> Vec<ModelKey> {
        let mut keys: Vec<ModelKey> = self.rd().keys().cloned().collect();
        keys.sort_by(|a, b| (&a.name, &a.format).cmp(&(&b.name, &b.format)));
        keys
    }

    /// Removes a model, returning it if present.
    pub fn remove(&self, key: &ModelKey) -> Option<Arc<QuantizedMlp>> {
        self.wr().remove(key)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.rd().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why `model`'s layers do not form one network, if they do not: it has
/// none, or a layer's fan-out is not the next layer's fan-in.
fn malformation(model: &QuantizedMlp) -> Option<String> {
    if model.layers.is_empty() {
        return Some("the model has no layers".into());
    }
    let (l, pair) = model
        .layers
        .windows(2)
        .enumerate()
        .find(|(_, pair)| pair[0].fan_out() != pair[1].fan_in())?;
    Some(format!(
        "layer {l} yields {} outputs but layer {} takes {} inputs",
        pair[0].fan_out(),
        l + 1,
        pair[1].fan_in()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_positron::train::{train, TrainConfig};
    use deep_positron::{Mlp, NumericFormat};
    use dp_datasets::iris;
    use dp_posit::PositFormat;

    fn tiny_model(format: NumericFormat) -> QuantizedMlp {
        let split = iris::load(7).split(50, 7).normalized();
        let mut mlp = Mlp::new(&[4, 6, 3], 7);
        train(
            &mut mlp,
            &split.train,
            TrainConfig {
                epochs: 2,
                batch_size: 16,
                lr: 0.02,
                seed: 7,
            },
        );
        QuantizedMlp::quantize(&mlp, format)
    }

    #[test]
    fn register_and_lookup_by_name_and_format() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let p8 = NumericFormat::Posit(PositFormat::new(8, 0).unwrap());
        let p6 = NumericFormat::Posit(PositFormat::new(6, 0).unwrap());
        let k8 = reg.register("iris", tiny_model(p8)).unwrap();
        let k6 = reg.register("iris", tiny_model(p6)).unwrap();
        assert_eq!(k8, ModelKey::new("iris", "posit<8,0>"));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(&k8).unwrap().format, p8);
        assert_eq!(reg.get(&k6).unwrap().format, p6);
        assert_eq!(reg.formats_of("iris"), vec![k6.clone(), k8.clone()]);
        assert!(reg.formats_of("absent").is_empty());
        assert!(reg.get(&ModelKey::new("iris", "fixed<8,6>")).is_none());
    }

    #[test]
    fn remove_keeps_in_flight_arcs_alive() {
        let reg = ModelRegistry::new();
        let key = reg
            .register(
                "m",
                tiny_model(NumericFormat::Posit(PositFormat::new(8, 0).unwrap())),
            )
            .unwrap();
        let held = reg.get(&key).unwrap();
        assert!(reg.remove(&key).is_some());
        assert!(reg.get(&key).is_none());
        // The request-side Arc still works after unregistration.
        assert_eq!(held.dims(), vec![4, 6, 3]);
    }

    #[test]
    fn register_rejects_datapathless_formats_with_typed_error() {
        // posit<8,6> has es > n − 3: no EMAC datapath. Before validation
        // moved to registration, serving such a model panicked inside a
        // pool worker; now the registry rejects it cleanly.
        let reg = ModelRegistry::new();
        let bad = NumericFormat::Posit(PositFormat::new(8, 6).unwrap());
        let err = reg.register("iris", tiny_model(bad)).unwrap_err();
        let RegistryError::UnsupportedModel { key, reason } = &err else {
            panic!("expected UnsupportedModel, got {err:?}");
        };
        assert_eq!(key, &ModelKey::new("iris", "posit<8,6>"));
        assert!(reason.contains("es <= n-3"), "{err}");
        assert!(err.to_string().contains("iris@posit<8,6>"));
        // Nothing was registered, and the registry still works.
        assert!(reg.is_empty());
        let ok = NumericFormat::Posit(PositFormat::new(8, 0).unwrap());
        assert!(reg.register("iris", tiny_model(ok)).is_ok());
        // The F32 baseline stays registrable (classify-only serving).
        assert!(reg.register("iris", tiny_model(NumericFormat::F32)).is_ok());
        // 16-bit formats are servable via the split-table datapath.
        let p16 = NumericFormat::Posit(PositFormat::new(16, 1).unwrap());
        assert!(reg.register("iris", tiny_model(p16)).is_ok());
    }

    #[test]
    fn register_rejects_models_whose_layers_do_not_chain() {
        // A ragged model (layer 0 yields 6 outputs, layer 1 takes 5) and a
        // model with no layers would each panic a pool worker on their
        // first forward: both are rejected in every format, F32 included.
        let reg = ModelRegistry::new();
        let p8 = NumericFormat::Posit(PositFormat::new(8, 0).unwrap());
        for format in [p8, NumericFormat::F32] {
            let mut ragged = tiny_model(format);
            let (fan_out, bias) = (ragged.layers[1].fan_out(), ragged.layers[1].biases()[0]);
            ragged.layers[1] = deep_positron::QuantizedLayer::new(
                5,
                fan_out,
                vec![bias; 5 * fan_out],
                vec![bias; fan_out],
            );
            let err = reg.register("ragged", ragged).unwrap_err();
            let RegistryError::MalformedModel { key, reason } = &err else {
                panic!("expected MalformedModel, got {err:?}");
            };
            assert_eq!(key, &ModelKey::new("ragged", format.to_string()));
            assert!(reason.contains("layer 0 yields 6 outputs"), "{err}");
            assert!(reason.contains("layer 1 takes 5 inputs"), "{err}");
            let empty = QuantizedMlp {
                format,
                layers: Vec::new(),
            };
            let err = reg.register("empty", empty).unwrap_err();
            assert!(matches!(err, RegistryError::MalformedModel { .. }), "{err}");
            assert!(err.to_string().contains("no layers"), "{err}");
        }
        assert!(reg.is_empty());
        // A well-formed model still registers.
        assert!(reg.register("iris", tiny_model(p8)).is_ok());
        assert_eq!(reg.len(), 1);
    }
}
