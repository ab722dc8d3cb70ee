//! Randomized tests: generated well-formed WSDL documents survive
//! write→parse round-trips and compile cleanly.
//!
//! The build environment is offline (no `proptest`), so these use a
//! hand-rolled deterministic xorshift generator with fixed seeds.

use wsrc_wsdl::{
    compile, parser, writer, CompileOptions, ComplexType, Definitions, Message, Part, PortType,
    Schema, SchemaField, Service, TypeRef, WsdlOperation, XsdType,
};

const CASES: u64 = 128;

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn name(rng: &mut Rng) -> String {
    const FIRST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";
    let mut s = String::new();
    s.push(FIRST[rng.below(FIRST.len())] as char);
    for _ in 0..rng.below(11) {
        s.push(REST[rng.below(REST.len())] as char);
    }
    s
}

fn distinct_names(rng: &mut Rng, min: usize, max: usize) -> Vec<String> {
    let target = min + rng.below(max - min + 1);
    let mut out: Vec<String> = Vec::new();
    while out.len() < target {
        let n = name(rng);
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

fn xsd_type(rng: &mut Rng) -> XsdType {
    [
        XsdType::String,
        XsdType::Int,
        XsdType::Long,
        XsdType::Double,
        XsdType::Boolean,
        XsdType::Base64Binary,
    ][rng.below(6)]
}

fn arb_definitions(rng: &mut Rng) -> Definitions {
    let doc_name = name(rng);
    let type_names = distinct_names(rng, 1, 3);
    let field_specs: Vec<(String, XsdType, bool)> = (0..1 + rng.below(4))
        .map(|_| (name(rng), xsd_type(rng), rng.bool()))
        .collect();
    let op_names = distinct_names(rng, 1, 3);
    let param_specs: Vec<(String, XsdType)> = (0..rng.below(4))
        .map(|_| (name(rng), xsd_type(rng)))
        .collect();
    let ret = xsd_type(rng);
    let use_complex_return = rng.bool();

    // Build complex types; later types may reference earlier ones.
    let mut types = Vec::new();
    for (i, tn) in type_names.iter().enumerate() {
        let mut fields: Vec<SchemaField> = Vec::new();
        let mut used = std::collections::HashSet::new();
        for (fname, ftype, as_array) in &field_specs {
            if !used.insert(fname.clone()) {
                continue;
            }
            let base = TypeRef::Xsd(*ftype);
            fields.push(SchemaField::new(
                fname.clone(),
                if *as_array { base.array() } else { base },
            ));
        }
        // Reference the previous type to exercise complex refs.
        if i > 0 && used.insert("prev".to_string()) {
            fields.push(SchemaField::new(
                "prev",
                TypeRef::Complex(type_names[i - 1].clone()),
            ));
        }
        types.push(ComplexType::new(tn.clone(), fields));
    }
    let mut messages = Vec::new();
    let mut operations = Vec::new();
    for op in &op_names {
        let input_name = format!("{op}In");
        let output_name = format!("{op}Out");
        let mut parts: Vec<Part> = Vec::new();
        let mut used = std::collections::HashSet::new();
        for (pname, ptype) in &param_specs {
            if used.insert(pname.clone()) {
                parts.push(Part::new(pname.clone(), TypeRef::Xsd(*ptype)));
            }
        }
        messages.push(Message {
            name: input_name.clone(),
            parts,
        });
        let return_ref = if use_complex_return {
            TypeRef::Complex(type_names[0].clone())
        } else {
            TypeRef::Xsd(ret)
        };
        messages.push(Message {
            name: output_name.clone(),
            parts: vec![Part::new("return", return_ref)],
        });
        operations.push(WsdlOperation {
            name: op.clone(),
            input_message: input_name,
            output_message: output_name,
        });
    }
    Definitions {
        name: doc_name.clone(),
        target_namespace: format!("urn:{doc_name}"),
        schema: Schema {
            target_namespace: format!("urn:{doc_name}"),
            types,
        },
        messages,
        port_type: PortType {
            name: format!("{doc_name}Port"),
            operations,
        },
        service: Service {
            name: format!("{doc_name}Service"),
            port_name: format!("{doc_name}Port"),
            endpoint_url: format!("http://{}.test/soap", doc_name.to_lowercase()),
        },
    }
}

#[test]
fn write_parse_roundtrip_is_identity() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed);
        let defs = arb_definitions(&mut rng);
        if defs.validate().is_err() {
            continue;
        }
        let xml = writer::write_wsdl(&defs).unwrap();
        let parsed = parser::parse_wsdl(&xml).unwrap();
        assert_eq!(parsed, defs, "seed {seed}");
    }
}

#[test]
fn generated_documents_compile() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 1000);
        let defs = arb_definitions(&mut rng);
        if defs.validate().is_err() {
            continue;
        }
        let compiled = compile(&defs, CompileOptions::default()).unwrap();
        assert_eq!(
            compiled.operations.len(),
            defs.port_type.operations.len(),
            "seed {seed}"
        );
        assert_eq!(
            compiled.registry.len(),
            defs.schema.types.len(),
            "seed {seed}"
        );
        // Every operation's parameters carry through by name and count.
        for op in &defs.port_type.operations {
            let c = compiled.operation(&op.name).unwrap();
            let input = defs.message(&op.input_message).unwrap();
            assert_eq!(c.params.len(), input.parts.len(), "seed {seed}");
        }
    }
}

#[test]
fn parser_never_panics_on_garbage() {
    for seed in 0..CASES {
        let mut rng = Rng::new(seed + 2000);
        let n = rng.below(200);
        let s: String = (0..n)
            .map(|_| char::from_u32(rng.next() as u32 % 0x300).unwrap_or('?'))
            .collect();
        let _ = parser::parse_wsdl(&s);
    }
}
