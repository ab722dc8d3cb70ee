//! The "WSDL compiler": turns a [`Definitions`] into runtime artifacts —
//! a [`TypeRegistry`] and [`OperationDescriptor`]s.
//!
//! Paper §4.2.3: "The WSDL compiler in Apache-Axis generates Java classes
//! for the data types … The generated classes are serializable and
//! bean-type. Although the current WSDL compiler does not add clone
//! methods, it should be easy for the WSDL compiler to add a proper deep
//! clone method." Every type this compiler registers supports all three
//! copies, the proposed deep clone included.

use crate::model::{Definitions, TypeRef, XsdType};
use wsrc_model::typeinfo::{FieldDescriptor, FieldType, TypeDescriptor, TypeRegistry};
use wsrc_soap::rpc::OperationDescriptor;

/// Compiler switches. There are none: a registered type supports every
/// copy method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileOptions;

/// The compiler's output: everything a client or server needs to speak
/// the service.
#[derive(Debug, Clone)]
pub struct CompiledService {
    /// Service namespace (the WSDL target namespace).
    pub namespace: String,
    /// Declared endpoint URL.
    pub endpoint_url: String,
    /// Generated type descriptors.
    pub registry: TypeRegistry,
    /// One descriptor per operation.
    pub operations: Vec<OperationDescriptor>,
}

impl CompiledService {
    /// Looks up an operation by name.
    pub fn operation(&self, name: &str) -> Option<&OperationDescriptor> {
        self.operations.iter().find(|o| o.name == name)
    }
}

/// Compiles a WSDL document.
///
/// # Errors
///
/// Returns a message for structurally invalid documents (dangling
/// references or response messages without exactly one part).
pub fn compile(defs: &Definitions, _options: CompileOptions) -> Result<CompiledService, String> {
    defs.validate()?;
    let mut registry = TypeRegistry::builder();
    for ct in &defs.schema.types {
        let fields = ct
            .fields
            .iter()
            .map(|f| FieldDescriptor::new(f.name.clone(), field_type(&f.type_ref)))
            .collect();
        registry = registry.register(TypeDescriptor::new(ct.name.clone(), fields));
    }
    let registry = registry.build();

    let mut operations = Vec::new();
    for op in &defs.port_type.operations {
        let input = defs
            .message(&op.input_message)
            .ok_or_else(|| format!("missing input message '{}'", op.input_message))?;
        let output = defs
            .message(&op.output_message)
            .ok_or_else(|| format!("missing output message '{}'", op.output_message))?;
        if output.parts.len() > 1 {
            return Err(format!(
                "operation '{}': multiple output parts are not supported",
                op.name
            ));
        }
        let params = input
            .parts
            .iter()
            .map(|p| FieldDescriptor::new(p.name.clone(), field_type(&p.type_ref)))
            .collect();
        let (return_type, return_name) = match output.parts.first() {
            Some(part) => (field_type(&part.type_ref), part.name.clone()),
            None => (FieldType::String, "return".to_string()), // void → nil string
        };
        let mut descriptor = OperationDescriptor::new(
            defs.target_namespace.clone(),
            op.name.clone(),
            params,
            return_type,
        );
        descriptor.return_name = return_name;
        operations.push(descriptor);
    }
    Ok(CompiledService {
        namespace: defs.target_namespace.clone(),
        endpoint_url: defs.service.endpoint_url.clone(),
        registry,
        operations,
    })
}

fn field_type(r: &TypeRef) -> FieldType {
    match r {
        TypeRef::Xsd(XsdType::String) => FieldType::String,
        TypeRef::Xsd(XsdType::Int) => FieldType::Int,
        TypeRef::Xsd(XsdType::Long) => FieldType::Long,
        TypeRef::Xsd(XsdType::Double) => FieldType::Double,
        TypeRef::Xsd(XsdType::Boolean) => FieldType::Bool,
        TypeRef::Xsd(XsdType::Base64Binary) => FieldType::Bytes,
        TypeRef::Complex(name) => FieldType::Struct(name.clone()),
        TypeRef::ArrayOf(inner) => FieldType::ArrayOf(Box::new(field_type(inner))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::tiny_service;

    #[test]
    fn compiles_types() {
        let c = compile(&tiny_service(), CompileOptions::default()).unwrap();
        assert!(c.registry.get("Hit").is_some());
        let sr = c.registry.get("SearchResult").unwrap();
        assert_eq!(
            sr.field("hits").unwrap().field_type,
            FieldType::ArrayOf(Box::new(FieldType::Struct("Hit".into())))
        );
    }

    #[test]
    fn compiles_operations() {
        let c = compile(&tiny_service(), CompileOptions::default()).unwrap();
        assert_eq!(c.namespace, "urn:TinySearch");
        assert_eq!(c.endpoint_url, "http://tiny.test/soap");
        let op = c.operation("doSearch").expect("operation exists");
        assert_eq!(op.params.len(), 2);
        assert_eq!(op.params[0].field_type, FieldType::String);
        assert_eq!(op.params[1].field_type, FieldType::Int);
        assert_eq!(op.return_type, FieldType::Struct("SearchResult".into()));
        assert_eq!(op.return_name, "return");
        assert!(c.operation("nope").is_none());
    }

    #[test]
    fn invalid_documents_fail() {
        let mut d = tiny_service();
        d.messages.remove(0);
        assert!(compile(&d, CompileOptions::default()).is_err());
    }

    #[test]
    fn multi_part_outputs_are_rejected() {
        let mut d = tiny_service();
        d.messages[1]
            .parts
            .push(crate::model::Part::new("extra", TypeRef::Xsd(XsdType::Int)));
        let err = compile(&d, CompileOptions::default()).unwrap_err();
        assert!(err.contains("multiple output parts"));
    }
}
