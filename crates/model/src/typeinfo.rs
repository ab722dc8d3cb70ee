//! Type descriptors, capability flags and the type registry.
//!
//! In the paper the middleware decides at run time which copy mechanism a
//! response object supports: is it `Serializable`? a bean with a default
//! constructor and getters/setters? does it have a generated deep
//! `clone()`? is it immutable? Those properties belong to the *type*, so
//! we attach them to [`TypeDescriptor`]s registered in a [`TypeRegistry`]
//! (populated by hand or by the WSDL compiler in `wsrc-wsdl`).

use crate::error::ModelError;
use crate::value::{Shape, StructValue, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// What a struct type supports, mirroring the Java capabilities the paper
/// relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Implements `java.io.Serializable` deeply (Java serialization copy
    /// is applicable).
    pub serializable: bool,
    /// Bean type: default constructor plus getters/setters for every field
    /// (reflection copy is applicable).
    pub bean: bool,
    /// Has a generated deep `clone()` method (clone copy is applicable).
    pub cloneable: bool,
    /// Has a value-based `toString()` suitable for cache keys.
    pub has_to_string: bool,
}

impl Capabilities {
    /// Everything enabled — what the WSDL compiler generates (the paper
    /// modified `GoogleSearchResult` "so that all of the methods could be
    /// applied").
    pub fn all() -> Self {
        Capabilities {
            serializable: true,
            bean: true,
            cloneable: true,
            has_to_string: true,
        }
    }

    /// Nothing enabled — an opaque application-specific class.
    pub fn none() -> Self {
        Capabilities {
            serializable: false,
            bean: false,
            cloneable: false,
            has_to_string: false,
        }
    }

    /// What the (unmodified) WSDL compiler generates: serializable bean
    /// types without a deep clone (paper §4.2.3: "the current WSDL
    /// compiler does not add clone methods").
    pub fn wsdl_generated() -> Self {
        Capabilities {
            serializable: true,
            bean: true,
            cloneable: false,
            has_to_string: true,
        }
    }
}

impl Default for Capabilities {
    fn default() -> Self {
        Capabilities::all()
    }
}

/// The static type of a field, used by the SOAP layer to deserialize
/// responses into correctly-typed values and by the reflection copier to
/// know what it is walking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldType {
    /// `boolean` / `xsd:boolean`.
    Bool,
    /// `int` / `xsd:int`.
    Int,
    /// `long` / `xsd:long`.
    Long,
    /// `double` / `xsd:double`.
    Double,
    /// `String` / `xsd:string`.
    String,
    /// `byte[]` / `xsd:base64Binary`.
    Bytes,
    /// An array of the given element type.
    ArrayOf(Box<FieldType>),
    /// A struct type, referenced by registry name.
    Struct(String),
}

impl FieldType {
    /// The registry name for struct types, if any.
    pub(crate) fn struct_name(&self) -> Option<&str> {
        match self {
            FieldType::Struct(n) => Some(n),
            FieldType::ArrayOf(inner) => inner.struct_name(),
            _ => None,
        }
    }

    /// The XML Schema type name used on the wire (`xsd:` prefix assumed).
    pub(crate) fn xsd_name(&self) -> &'static str {
        match self {
            FieldType::Bool => "boolean",
            FieldType::Int => "int",
            FieldType::Long => "long",
            FieldType::Double => "double",
            FieldType::String => "string",
            FieldType::Bytes => "base64Binary",
            FieldType::ArrayOf(_) => "Array",
            FieldType::Struct(_) => "anyType",
        }
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldType::ArrayOf(inner) => write!(f, "{inner}[]"),
            FieldType::Struct(n) => f.write_str(n),
            other => f.write_str(other.xsd_name()),
        }
    }
}

/// One declared field of a struct type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDescriptor {
    /// Field (and accessor) name. Shared: every instance decoded or
    /// copied under this descriptor carries a clone of this handle.
    pub name: Arc<str>,
    /// Element name on the wire; usually equal to `name` (and then the
    /// same handle).
    pub xml_name: Arc<str>,
    /// Static type.
    pub field_type: FieldType,
}

impl FieldDescriptor {
    /// Creates a field whose XML name equals its field name.
    pub fn new(name: impl Into<Arc<str>>, field_type: FieldType) -> Self {
        let name = name.into();
        FieldDescriptor {
            xml_name: name.clone(),
            name,
            field_type,
        }
    }
}

/// A registered struct type.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDescriptor {
    /// Registry name (also the default XML element name). Shared with
    /// every instance of the type, like
    /// [`FieldDescriptor::name`].
    pub name: Arc<str>,
    /// Declared fields in order.
    pub fields: Vec<FieldDescriptor>,
    /// What the type supports.
    pub capabilities: Capabilities,
}

impl TypeDescriptor {
    /// Creates a descriptor with [`Capabilities::all`].
    pub fn new(name: impl Into<Arc<str>>, fields: Vec<FieldDescriptor>) -> Self {
        TypeDescriptor {
            name: name.into(),
            fields,
            capabilities: Capabilities::all(),
        }
    }

    /// Builder-style capability override.
    pub fn with_capabilities(mut self, capabilities: Capabilities) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// Looks up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDescriptor> {
        self.fields.iter().find(|f| &*f.name == name)
    }

    /// Looks up a field by its XML element name.
    pub fn field_by_xml_name(&self, xml_name: &str) -> Option<&FieldDescriptor> {
        self.fields.iter().find(|f| &*f.xml_name == xml_name)
    }
}

/// One registered struct type as compiled when its registry is built:
/// the descriptor plus everything a per-message walk would otherwise
/// look up by name. Decoders and the capability walk reach a child's
/// plan through `field_plan` — an index, not a
/// `HashMap<String>` probe.
#[derive(Debug)]
pub struct StructPlan {
    descriptor: TypeDescriptor,
    /// The descriptor's name and field names as the one handle an
    /// instance holding every declared field, in order, carries.
    shape: Arc<Shape>,
    /// Per declared field, the index (in the registry's plan table) of
    /// the struct its type bottoms out in, when that struct is
    /// registered.
    field_plans: Vec<Option<u32>>,
    /// No two declared fields share an XML name, so the first field
    /// matching a name is the only one.
    xml_names_unique: bool,
    /// No two declared fields share a field name, so appending declared
    /// fields can never produce a duplicate.
    names_unique: bool,
}

impl StructPlan {
    /// The descriptor this plan was compiled from.
    pub fn descriptor(&self) -> &TypeDescriptor {
        &self.descriptor
    }

    /// The shape of a fully populated instance in declaration order —
    /// what a decoded or instantiated struct of this type carries, so
    /// that all of them share one set of names.
    pub fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// The shape of an instance holding the first `count` declared
    /// fields in declaration order: the plan's own when that is all of
    /// them, else one made here over the descriptor's name handles.
    pub fn prefix_shape(&self, count: usize) -> Arc<Shape> {
        let declared = &self.descriptor.fields;
        match count == declared.len() {
            true => self.shape.clone(),
            false => Arc::new(Shape::new(
                self.descriptor.name.clone(),
                declared[..count].iter().map(|f| f.name.clone()),
            )),
        }
    }

    /// Whether appending each declared field at most once yields
    /// distinct field names.
    pub fn names_unique(&self) -> bool {
        self.names_unique
    }

    /// Slot of the declared field whose XML name is `xml_name` — the
    /// first such field, as [`TypeDescriptor::field_by_xml_name`] finds
    /// it. `hint` is probed first: wire order is declaration order in
    /// the overwhelming case, so the scan is one compare.
    pub fn slot_by_xml_name(&self, xml_name: &str, hint: usize) -> Option<usize> {
        let fields = &self.descriptor.fields;
        if self.xml_names_unique && fields.get(hint).is_some_and(|f| &*f.xml_name == xml_name) {
            return Some(hint);
        }
        fields.iter().position(|f| &*f.xml_name == xml_name)
    }

    /// Slot of the declared field named `name` (first match, as
    /// [`TypeDescriptor::field`]), probing `hint` first.
    fn slot_by_name(&self, name: &str, hint: usize) -> Option<usize> {
        let fields = &self.descriptor.fields;
        if self.names_unique && fields.get(hint).is_some_and(|f| &*f.name == name) {
            return Some(hint);
        }
        fields.iter().position(|f| &*f.name == name)
    }

    /// The plan of the struct type field `slot` is declared to hold
    /// (directly or as array elements), when registered in `registry` —
    /// which must be the registry this plan came from.
    pub(crate) fn field_plan<'r>(
        &self,
        slot: usize,
        registry: &'r TypeRegistry,
    ) -> Option<&'r StructPlan> {
        let index = (*self.field_plans.get(slot)?)?;
        registry.inner.plans.get(index as usize)
    }

    /// [`field_plan`](StructPlan::field_plan) of the field *named*
    /// `name`, which sits at `position` in the instance being walked —
    /// the declared slot too, when the instance is in declaration order.
    pub(crate) fn child_plan<'r>(
        &self,
        name: &str,
        position: usize,
        registry: &'r TypeRegistry,
    ) -> Option<&'r StructPlan> {
        self.slot_by_name(name, position)
            .and_then(|slot| self.field_plan(slot, registry))
    }

    /// An instance of this type holding `fields` in the order given —
    /// how a service builds its response: one allocation for the field
    /// values and, when the fields are the declared ones in declaration
    /// order, the plan's own [`shape`](StructPlan::shape). Any other
    /// field list is [`StructValue::from_fields`] under the descriptor's
    /// names.
    pub fn instantiate<'n>(
        &self,
        fields: impl IntoIterator<Item = (&'n str, Value)>,
    ) -> StructValue {
        let declared = &self.descriptor.fields;
        // The names given, once they stop following the declaration.
        let mut other: Option<Vec<&str>> = (!self.names_unique).then(Vec::new);
        let mut count = 0;
        let values: Arc<[Value]> = fields
            .into_iter()
            .map(|(name, value)| {
                if other.is_none() && declared.get(count).is_none_or(|f| *f.name != *name) {
                    other = Some(declared[..count].iter().map(|f| &*f.name).collect());
                }
                if let Some(names) = &mut other {
                    names.push(name);
                }
                count += 1;
                value
            })
            .collect();
        match other {
            None => StructValue::slice(values, self.prefix_shape(count), 0),
            Some(names) => StructValue::from_fields(
                self.descriptor.name.clone(),
                names
                    .into_iter()
                    .map(|name| match self.slot_by_name(name, usize::MAX) {
                        Some(slot) => declared[slot].name.clone(),
                        None => Arc::from(name),
                    })
                    .zip(values.iter().cloned()),
            ),
        }
    }

    /// The declared kind of field `slot`, resolved against `registry`
    /// (the registry this plan came from).
    pub fn field_kind<'r>(&'r self, slot: usize, registry: &'r TypeRegistry) -> Option<Kind<'r>> {
        let field = self.descriptor.fields.get(slot)?;
        Some(Kind {
            field_type: &field.field_type,
            plan: self.field_plan(slot, registry),
        })
    }
}

/// A declared type resolved against a registry: the [`FieldType`] as
/// written plus the compiled plan of the struct it bottoms out in. It is
/// two references — `Copy`, nothing owned — so a decoder can carry one
/// per open element instead of a cloned `FieldType` and a name to look
/// up.
#[derive(Debug, Clone, Copy)]
pub struct Kind<'r> {
    field_type: &'r FieldType,
    plan: Option<&'r StructPlan>,
}

impl<'r> Kind<'r> {
    /// The declared type.
    pub fn field_type(&self) -> &'r FieldType {
        self.field_type
    }

    /// The compiled plan when this kind *is* a registered struct (not an
    /// array of one). `None` for scalars, arrays and unregistered
    /// ("dynamic") struct types.
    pub fn struct_plan(&self) -> Option<&'r StructPlan> {
        match self.field_type {
            FieldType::Struct(_) => self.plan,
            _ => None,
        }
    }

    /// The element kind when this kind is an array.
    pub fn element(&self) -> Option<Kind<'r>> {
        match self.field_type {
            FieldType::ArrayOf(inner) => Some(Kind {
                field_type: inner,
                plan: self.plan,
            }),
            _ => None,
        }
    }
}

/// Which copy mechanisms a whole value tree supports — the three
/// run-time detections of paper §4.2.3 answered by one walk
/// ([`TypeRegistry::deep_capabilities`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeepCapabilities {
    /// Every struct node is serializable.
    pub serializable: bool,
    /// The value is a bean-type struct or an array (incl. `byte[]`) and
    /// every nested struct is a bean.
    pub reflect_copyable: bool,
    /// The value is a struct or array and every struct node has a deep
    /// clone.
    pub cloneable: bool,
}

#[derive(Debug, Default)]
struct Compiled {
    /// Type name → index into `plans`.
    index: HashMap<Arc<str>, u32>,
    /// One plan per registered type, sorted by type name.
    plans: Vec<StructPlan>,
}

/// An immutable, shareable collection of type descriptors.
///
/// Registries are built once (by hand or by the WSDL compiler) and shared
/// across threads behind `Arc`s inside the descriptors' consumers.
/// Building one compiles the schema: every struct type gets a
/// [`StructPlan`], so per-message code resolves nested types by index.
///
/// ```
/// use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
/// let registry = TypeRegistry::builder()
///     .register(TypeDescriptor::new(
///         "Point",
///         vec![
///             FieldDescriptor::new("x", FieldType::Int),
///             FieldDescriptor::new("y", FieldType::Int),
///         ],
///     ))
///     .build();
/// assert!(registry.get("Point").is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TypeRegistry {
    inner: Arc<Compiled>,
}

impl TypeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TypeRegistry::default()
    }

    /// Starts building a registry.
    pub fn builder() -> TypeRegistryBuilder {
        TypeRegistryBuilder {
            types: HashMap::new(),
        }
    }

    /// Looks up a type by name.
    pub fn get(&self, name: &str) -> Option<&TypeDescriptor> {
        self.plan(name).map(StructPlan::descriptor)
    }

    /// Looks up a type's compiled plan by name (one hash probe; nested
    /// types are then reached through the plan, by index).
    pub fn plan(&self, name: &str) -> Option<&StructPlan> {
        let index = *self.inner.index.get(name)?;
        self.inner.plans.get(index as usize)
    }

    /// Resolves a declared type against this registry — one hash probe
    /// when it names a struct, none otherwise.
    pub fn kind_of<'r>(&'r self, field_type: &'r FieldType) -> Kind<'r> {
        Kind {
            field_type,
            plan: field_type.struct_name().and_then(|name| self.plan(name)),
        }
    }

    /// Looks up a type or fails with [`ModelError::UnknownType`].
    ///
    /// # Errors
    ///
    /// Returns `UnknownType` when the name is not registered.
    pub(crate) fn require(&self, name: &str) -> Result<&TypeDescriptor, ModelError> {
        self.get(name)
            .ok_or_else(|| ModelError::UnknownType(name.to_string()))
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.inner.plans.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.plans.is_empty()
    }

    /// Iterates over all descriptors, sorted by type name.
    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = &TypeDescriptor> {
        self.inner.plans.iter().map(StructPlan::descriptor)
    }

    /// The plan of struct node `s`: the one its parent's declaration
    /// predicts when the names agree (a string compare), else by name.
    pub(crate) fn plan_for<'r>(
        &'r self,
        s: &StructValue,
        declared: Option<&'r StructPlan>,
    ) -> Option<&'r StructPlan> {
        declared
            .filter(|p| Arc::ptr_eq(&p.shape, s.shape()) || *p.descriptor.name == *s.type_name())
            .or_else(|| self.plan(s.type_name()))
    }

    /// Answers the three run-time detections of paper §4.2.3 — deeply
    /// serializable, copyable by reflection, deeply cloneable — in one
    /// walk over `value`. Struct nodes of well-typed values are resolved
    /// through their parent's plan, so only the root costs a hash probe.
    pub fn deep_capabilities(&self, value: &Value) -> DeepCapabilities {
        let mut all = Capabilities::all();
        self.fold_capabilities(value, None, &mut all);
        // The paper's Table 7 "n/a" cells: a bare immutable has neither a
        // reflection copy nor a deep clone, a bare byte[] no deep clone.
        let (array_type, clone_method) = match value {
            Value::Bytes(_) => (true, false),
            Value::Array(_) | Value::Struct(_) => (true, true),
            _ => (false, false),
        };
        DeepCapabilities {
            serializable: all.serializable,
            reflect_copyable: array_type && all.bean,
            cloneable: clone_method && all.cloneable,
        }
    }

    /// Checks whether every struct node in `value` has a deep clone.
    /// The paper treats a bare `byte[]` / `String` as having no usable
    /// deep clone method (Table 7's n/a cells).
    pub(crate) fn is_deeply_cloneable(&self, value: &Value) -> bool {
        self.deep_capabilities(value).cloneable
    }

    /// Checks whether `value` is copyable with the reflection API: the top
    /// level must be a bean-type struct or an array (incl. `byte[]`), and
    /// every nested struct must be a bean. Bare immutables are shared, not
    /// copied; the paper's Table 7 reports reflection as n/a for a bare
    /// String response.
    pub fn is_reflect_copyable(&self, value: &Value) -> bool {
        self.deep_capabilities(value).reflect_copyable
    }

    /// ANDs the capabilities of every struct node under `value` into
    /// `all`; an unregistered struct proves nothing, so it clears them.
    fn fold_capabilities(
        &self,
        value: &Value,
        declared: Option<&StructPlan>,
        all: &mut Capabilities,
    ) {
        match value {
            Value::Array(items) => {
                for item in items.iter() {
                    self.fold_capabilities(item, declared, all);
                }
            }
            Value::Struct(s) => {
                let Some(plan) = self.plan_for(s, declared) else {
                    *all = Capabilities::none();
                    return;
                };
                let own = plan.descriptor.capabilities;
                all.serializable &= own.serializable;
                all.bean &= own.bean;
                all.cloneable &= own.cloneable;
                for (position, (name, child)) in s.fields().enumerate() {
                    if matches!(child, Value::Array(_) | Value::Struct(_)) {
                        let declared = plan.child_plan(name, position, self);
                        self.fold_capabilities(child, declared, all);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Builder for [`TypeRegistry`].
#[derive(Debug, Default)]
pub struct TypeRegistryBuilder {
    types: HashMap<Arc<str>, TypeDescriptor>,
}

impl TypeRegistryBuilder {
    /// Registers a descriptor, replacing any previous one with the same name.
    pub fn register(mut self, descriptor: TypeDescriptor) -> Self {
        self.types.insert(descriptor.name.clone(), descriptor);
        self
    }

    /// Merges every descriptor from another registry.
    #[cfg(test)]
    pub(crate) fn merge(mut self, other: &TypeRegistry) -> Self {
        for d in other.iter() {
            self.types.insert(d.name.clone(), d.clone());
        }
        self
    }

    /// Finalizes the registry, compiling one [`StructPlan`] per type.
    pub fn build(self) -> TypeRegistry {
        let mut descriptors: Vec<TypeDescriptor> = self.types.into_values().collect();
        descriptors.sort_by(|a, b| a.name.cmp(&b.name));
        let index: HashMap<Arc<str>, u32> = descriptors
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let i = u32::try_from(i).expect("registry exceeds u32 types");
                (d.name.clone(), i)
            })
            .collect();
        let plans = descriptors
            .into_iter()
            .map(|descriptor| {
                let fields = &descriptor.fields;
                let distinct = |key: fn(&FieldDescriptor) -> &str| {
                    (1..fields.len()).all(|i| fields[..i].iter().all(|f| key(f) != key(&fields[i])))
                };
                StructPlan {
                    shape: Arc::new(Shape::schema(
                        descriptor.name.clone(),
                        fields.iter().map(|f| f.name.clone()),
                    )),
                    field_plans: fields
                        .iter()
                        .map(|f| {
                            f.field_type
                                .struct_name()
                                .and_then(|n| index.get(n).copied())
                        })
                        .collect(),
                    xml_names_unique: distinct(|f| &f.xml_name),
                    names_unique: distinct(|f| &f.name),
                    descriptor,
                }
            })
            .collect();
        TypeRegistry {
            inner: Arc::new(Compiled { index, plans }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::StructValue;

    fn registry() -> TypeRegistry {
        TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Bean",
                vec![
                    FieldDescriptor::new("a", FieldType::Int),
                    FieldDescriptor::new("b", FieldType::String),
                ],
            ))
            .register(TypeDescriptor::new("Opaque", vec![]).with_capabilities(Capabilities::none()))
            .register(
                TypeDescriptor::new("Generated", vec![FieldDescriptor::new("x", FieldType::Int)])
                    .with_capabilities(Capabilities::wsdl_generated()),
            )
            .build()
    }

    fn bean() -> Value {
        Value::Struct(StructValue::new("Bean").with("a", 1).with("b", "s"))
    }

    #[test]
    fn lookup_and_require() {
        let r = registry();
        assert!(r.get("Bean").is_some());
        assert!(r.get("Nope").is_none());
        assert!(matches!(r.require("Nope"), Err(ModelError::UnknownType(_))));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn field_lookup_by_name_and_xml_name() {
        let r = registry();
        let d = r.get("Bean").unwrap();
        assert_eq!(d.field("a").unwrap().field_type, FieldType::Int);
        assert!(d.field("z").is_none());
        assert_eq!(&*d.field_by_xml_name("b").unwrap().name, "b");
    }

    #[test]
    fn serializability_detection_is_deep() {
        let r = registry();
        assert!(r.deep_capabilities(&bean()).serializable);
        let with_opaque = Value::Struct(
            StructValue::new("Bean").with("a", Value::Struct(StructValue::new("Opaque"))),
        );
        assert!(!r.deep_capabilities(&with_opaque).serializable);
        // Primitives, strings, bytes and arrays of them are serializable.
        assert!(r.deep_capabilities(&Value::from(vec![1u8])).serializable);
        assert!(
            r.deep_capabilities(&Value::from(vec![Value::Int(1)]))
                .serializable
        );
        // Unregistered struct types are *not* (unknown ⇒ cannot prove).
        let unknown = Value::Struct(StructValue::new("Mystery"));
        assert!(!r.deep_capabilities(&unknown).serializable);
    }

    #[test]
    fn clone_applicability_matches_paper_na_cells() {
        let r = registry();
        // Bare String and byte[] responses have no deep clone (Table 7 n/a).
        assert!(!r.is_deeply_cloneable(&Value::string("s")));
        assert!(!r.is_deeply_cloneable(&Value::from(vec![1u8])));
        // All-capable struct is cloneable; WSDL-generated (no clone) is not.
        assert!(r.is_deeply_cloneable(&bean()));
        let generated = Value::Struct(StructValue::new("Generated").with("x", 1));
        assert!(!r.is_deeply_cloneable(&generated));
    }

    #[test]
    fn reflect_applicability_matches_paper_na_cells() {
        let r = registry();
        // Bare String: n/a. byte[] (array type): applicable.
        assert!(!r.is_reflect_copyable(&Value::string("s")));
        assert!(r.is_reflect_copyable(&Value::from(vec![1u8, 2])));
        assert!(r.is_reflect_copyable(&bean()));
        let opaque = Value::Struct(StructValue::new("Opaque"));
        assert!(!r.is_reflect_copyable(&opaque));
        let arr_of_beans = Value::from(vec![bean(), bean()]);
        assert!(r.is_reflect_copyable(&arr_of_beans));
        let arr_with_opaque = Value::from(vec![bean(), opaque]);
        assert!(!r.is_reflect_copyable(&arr_with_opaque));
    }

    fn nested_registry() -> TypeRegistry {
        TypeRegistry::builder()
            .merge(&registry())
            .register(TypeDescriptor::new(
                "Outer",
                vec![
                    FieldDescriptor::new("id", FieldType::Int),
                    FieldDescriptor::new("bean", FieldType::Struct("Bean".into())),
                    FieldDescriptor::new(
                        "generated",
                        FieldType::ArrayOf(Box::new(FieldType::ArrayOf(Box::new(
                            FieldType::Struct("Generated".into()),
                        )))),
                    ),
                    FieldDescriptor::new("ghost", FieldType::Struct("Unregistered".into())),
                ],
            ))
            .build()
    }

    #[test]
    fn plans_resolve_nested_types_by_index() {
        let r = nested_registry();
        let outer = r.plan("Outer").unwrap();
        assert_eq!(&*outer.descriptor().name, "Outer");
        assert!(outer.field_plan(0, &r).is_none());
        assert_eq!(&*outer.field_plan(1, &r).unwrap().descriptor().name, "Bean");
        // Through any depth of arrays.
        assert_eq!(
            &*outer.field_plan(2, &r).unwrap().descriptor().name,
            "Generated"
        );
        // Unregistered struct types stay dynamic; no slot past the end.
        assert!(outer.field_plan(3, &r).is_none());
        assert!(outer.field_plan(4, &r).is_none());
        assert!(outer.field_kind(4, &r).is_none());

        let bean = outer.field_kind(1, &r).unwrap();
        assert_eq!(bean.field_type(), &FieldType::Struct("Bean".into()));
        assert_eq!(&*bean.struct_plan().unwrap().descriptor().name, "Bean");
        assert!(bean.element().is_none());

        // An array is not itself a struct; its innermost element is.
        let rows = outer.field_kind(2, &r).unwrap();
        assert!(rows.struct_plan().is_none());
        let row = rows.element().unwrap();
        assert!(row.struct_plan().is_none());
        let cell = row.element().unwrap();
        assert_eq!(&*cell.struct_plan().unwrap().descriptor().name, "Generated");
        assert!(cell.element().is_none());

        let ghost = outer.field_kind(3, &r).unwrap();
        assert_eq!(ghost.field_type().struct_name(), Some("Unregistered"));
        assert!(ghost.struct_plan().is_none());

        // Top-level types resolve the same way.
        let ty = FieldType::ArrayOf(Box::new(FieldType::Struct("Bean".into())));
        let top = r.kind_of(&ty);
        assert_eq!(
            &*top
                .element()
                .unwrap()
                .struct_plan()
                .unwrap()
                .descriptor()
                .name,
            "Bean"
        );
        assert!(r.kind_of(&FieldType::Int).struct_plan().is_none());
    }

    #[test]
    fn instances_share_the_descriptors_names() {
        let r = registry();
        let plan = r.plan("Bean").unwrap();
        // Every declared field in declaration order: the plan's own
        // shape, and one block for the values.
        let full = plan.instantiate([("a", Value::Int(1)), ("b", Value::string("s"))]);
        assert!(Arc::ptr_eq(full.shape(), plan.shape()));
        assert_eq!(Value::Struct(full), bean());
        // A declared prefix: a shape of its own over the same names.
        let prefix = plan.instantiate([("a", Value::Int(1))]);
        assert!(Arc::ptr_eq(
            &prefix.shape().names()[0],
            &plan.descriptor().fields[0].name
        ));
        assert_eq!(prefix, StructValue::new("Bean").with("a", 1));
        // Out of declaration order, with one undeclared field and one
        // given twice.
        let s = plan.instantiate([
            ("b", Value::string("first")),
            ("extra", Value::Int(9)),
            ("a", Value::Int(1)),
            ("b", Value::string("s")),
        ]);
        let names: Vec<&str> = s.fields().map(|(n, _)| n).collect();
        assert_eq!(names, ["b", "extra", "a"]);
        for name in s.shape().names() {
            match plan.descriptor().field(name) {
                Some(declared) => assert!(Arc::ptr_eq(name, &declared.name), "{name}"),
                None => assert_eq!(&**name, "extra"),
            }
        }
        assert_eq!(
            Value::Struct(s),
            Value::Struct(
                StructValue::new("Bean")
                    .with("b", "s")
                    .with("extra", 9)
                    .with("a", 1)
            )
        );
    }

    #[test]
    fn slot_probe_finds_the_first_matching_field() {
        let r = TypeRegistry::builder()
            .register(TypeDescriptor::new(
                "Twice",
                vec![
                    FieldDescriptor::new("a", FieldType::Int),
                    FieldDescriptor {
                        name: "first".into(),
                        xml_name: "dup".into(),
                        field_type: FieldType::Int,
                    },
                    FieldDescriptor {
                        name: "second".into(),
                        xml_name: "dup".into(),
                        field_type: FieldType::String,
                    },
                ],
            ))
            .build();
        let bean = nested_registry();
        let bean = bean.plan("Bean").unwrap();
        // In order, out of order, past the end, unknown.
        assert_eq!(bean.slot_by_xml_name("a", 0), Some(0));
        assert_eq!(bean.slot_by_xml_name("b", 1), Some(1));
        assert_eq!(bean.slot_by_xml_name("a", 1), Some(0));
        assert_eq!(bean.slot_by_xml_name("b", 2), Some(1));
        assert_eq!(bean.slot_by_xml_name("c", 0), None);
        assert!(bean.names_unique());
        // A repeated XML name resolves as `field_by_xml_name` does, even
        // when the hint points at the later field.
        let twice = r.plan("Twice").unwrap();
        assert_eq!(twice.slot_by_xml_name("dup", 2), Some(1));
        assert_eq!(
            &*twice.descriptor().field_by_xml_name("dup").unwrap().name,
            "first"
        );
        assert!(twice.names_unique());
    }

    /// The three per-capability walks `deep_capabilities` replaced.
    fn reference_capabilities(r: &TypeRegistry, value: &Value) -> DeepCapabilities {
        fn all(r: &TypeRegistry, value: &Value, pred: fn(&Capabilities) -> bool) -> bool {
            match value {
                Value::Array(items) => items.iter().all(|v| all(r, v, pred)),
                Value::Struct(s) => {
                    r.get(s.type_name()).is_some_and(|d| pred(&d.capabilities))
                        && s.fields().all(|(_, v)| all(r, v, pred))
                }
                _ => true,
            }
        }
        let container = matches!(value, Value::Array(_) | Value::Struct(_));
        DeepCapabilities {
            serializable: all(r, value, |c| c.serializable),
            reflect_copyable: (container || matches!(value, Value::Bytes(_)))
                && all(r, value, |c| c.bean),
            cloneable: container && all(r, value, |c| c.cloneable),
        }
    }

    #[test]
    fn one_walk_answers_like_three() {
        let r = nested_registry();
        let generated = || Value::Struct(StructValue::new("Generated").with("x", 1));
        let opaque = || Value::Struct(StructValue::new("Opaque"));
        let outer = |bean: Value, rows: Value| {
            Value::Struct(
                StructValue::new("Outer")
                    .with("id", 1)
                    .with("bean", bean)
                    .with("generated", rows),
            )
        };
        let values = [
            Value::Null,
            Value::string("s"),
            Value::from(vec![1u8]),
            Value::from(Vec::<Value>::new()),
            bean(),
            generated(),
            opaque(),
            Value::Struct(StructValue::new("Unregistered")),
            // Well typed: every struct sits where its parent declares it.
            outer(bean(), Value::from(vec![Value::from(vec![generated()])])),
            outer(bean(), Value::from(Vec::<Value>::new())),
            // Not what the declaration says: resolved by name instead.
            outer(generated(), Value::from(vec![bean(), opaque()])),
            outer(Value::Null, Value::Struct(StructValue::new("Unregistered"))),
            // Out of declaration order, an undeclared field, a struct
            // where a scalar is declared.
            Value::Struct(
                StructValue::new("Outer")
                    .with("generated", Value::from(vec![generated()]))
                    .with("extra", opaque())
                    .with("id", bean()),
            ),
            Value::from(vec![bean(), Value::from(vec![opaque()])]),
        ];
        for v in &values {
            assert_eq!(r.deep_capabilities(v), reference_capabilities(&r, v), "{v}");
        }
    }

    #[test]
    fn field_type_defaults_and_display() {
        assert_eq!(
            FieldType::ArrayOf(Box::new(FieldType::Int)).to_string(),
            "int[]"
        );
        assert_eq!(FieldType::Struct("T".into()).to_string(), "T");
        assert_eq!(
            FieldType::ArrayOf(Box::new(FieldType::Struct("T".into()))).struct_name(),
            Some("T")
        );
    }

    #[test]
    fn capability_presets() {
        assert!(Capabilities::all().cloneable);
        assert!(!Capabilities::wsdl_generated().cloneable);
        assert!(Capabilities::wsdl_generated().serializable);
        assert!(!Capabilities::none().bean);
    }
}
