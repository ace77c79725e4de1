//! # foxq-server — serving the streaming engine over the network
//!
//! The paper's thesis is that forest-transducer evaluation is *streaming*:
//! bounded buffering over unbounded documents. This crate is where that
//! claim meets a socket. A zero-dependency HTTP/1.1 server (hand-rolled on
//! `std::net` — the build environment has no registry access, so no
//! hyper/tokio) exposes the `foxq_service` layer to untrusted network
//! clients:
//!
//! | Endpoint          | Meaning                                               |
//! |-------------------|-------------------------------------------------------|
//! | `POST /query?q=…` | stream the request body through one prepared query    |
//! | `POST /batch?q=…&q=…` | N queries, **one pass** over the request body     |
//! | `GET /metrics`    | Prometheus text: cache, lanes, bytes, prefilter       |
//! | `GET /healthz`    | liveness                                              |
//! | `POST /shutdown`  | graceful drain (also [`ServerHandle::shutdown`])      |
//!
//! The whole path is streaming and bounded end to end, by the rows of
//! [`foxq_service::LIMITS`]: request bodies flow straight off the socket
//! through [`foxq_xml::BoundedReader`] (413 past `max_body_bytes`, body
//! never buffered whole) and `XmlReader` into a
//! [`foxq_service::MultiQueryEngine`]; query text is compiled through a
//! process-wide [`foxq_service::SharedQueryCache`] under the compile bounds;
//! lanes run under the output and fuel bounds; connections carry read/write
//! timeouts so no peer can wedge a worker.
//!
//! Connection I/O is readiness-driven: an epoll reactor thread
//! ([`reactor`]) owns every socket and its per-connection state machine
//! ([`conn`]), and the worker pool runs only the CPU-bound engine half —
//! a slow or idle peer costs a small buffer, never a parked thread (see
//! [`serve`] for the full architecture).
//!
//! ```no_run
//! use foxq_server::{client, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! let handle = server.start().unwrap();
//! let addr = handle.local_addr();
//!
//! let doc = b"<site><people><person><name>Jim</name></person></people></site>";
//! let target = client::query_target("<o>{$input/site/people/person/name/text()}</o>");
//! let response = client::post(addr, &target, doc).unwrap();
//! assert_eq!(response.status, 200);
//! assert_eq!(response.text(), "<o>Jim</o>");
//! handle.shutdown(); // drains in-flight requests, then joins
//! ```

#![warn(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod conn;
pub mod http;
pub mod metrics;
pub mod reactor;
pub mod serve;

pub use metrics::{Endpoint, Metrics};
pub use serve::{Server, ServerConfig, ServerHandle};
