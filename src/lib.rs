#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Facade crate re-exporting the whole wsrcache workspace.
//!
//! See the [README](https://example.org/wsrcache) for the project overview.

pub use wsrc_cache as cache;
pub use wsrc_client as client;
pub use wsrc_http as http;
pub use wsrc_model as model;
pub use wsrc_obs as obs;
pub use wsrc_portal as portal;
pub use wsrc_services as services;
pub use wsrc_soap as soap;
pub use wsrc_xml as xml;
