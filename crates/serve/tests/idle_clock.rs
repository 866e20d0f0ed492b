//! Idle-timeout accounting at the wire: the clock resets on any
//! *completed* frame (a reply going out), not only on request dispatch. A
//! request that runs longer than the idle timeout must still get its
//! reply, and the connection must stay usable afterwards.

use chason_serve::proto::{
    decode_reply, encode_request, read_frame_blocking, write_frame, Reply, Request,
    DEFAULT_MAX_FRAME,
};
use chason_serve::server::{ServeConfig, Server};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

fn start_with(idle_timeout: Duration) -> Server {
    Server::start(ServeConfig {
        workers: 2,
        idle_timeout,
        ..ServeConfig::default()
    })
    .expect("server binds an ephemeral port")
}

/// Sends one raw frame and reads one raw reply on a bare socket.
fn raw_round_trip(stream: &mut TcpStream, request: &Request) -> Reply {
    write_frame(stream, &encode_request(request)).expect("write frame");
    let reply = read_frame_blocking(stream, DEFAULT_MAX_FRAME).expect("read reply frame");
    decode_reply(&reply).expect("decode reply")
}

/// A request that runs longer than the idle timeout is not reaped
/// mid-flight, and — the accounting fix — the idle clock restarts when
/// its reply completes, not when the request was dispatched: a follow-up
/// sent within one timeout of the *reply* (but more than one timeout
/// after the dispatch) still succeeds.
#[test]
fn idle_clock_resets_on_completed_frames() {
    let server = start_with(Duration::from_millis(600));
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // Sleep 500 ms: most of the idle window burns while the worker runs.
    let reply = raw_round_trip(&mut stream, &Request::Sleep { millis: 500 });
    assert!(matches!(reply, Reply::Done), "{reply:?}");

    // 400 ms of silence: within 600 ms of the reply, but ~900 ms past the
    // dispatch. A dispatch-anchored clock would have reaped us by now.
    thread::sleep(Duration::from_millis(400));
    let reply = raw_round_trip(&mut stream, &Request::Stats);
    assert!(matches!(reply, Reply::Stats(_)), "{reply:?}");

    let reply = raw_round_trip(&mut stream, &Request::Shutdown);
    assert!(matches!(reply, Reply::Done), "{reply:?}");
    server.join();
}

/// The reset-on-completion fix must not break reaping itself: a
/// connection with no traffic at all is still closed after the timeout.
#[test]
fn silent_connection_is_reaped() {
    let server = start_with(Duration::from_millis(250));
    let addr = server.local_addr().to_string();
    let mut stream = TcpStream::connect(&addr).expect("connect");
    thread::sleep(Duration::from_millis(1000));
    // The reap may surface as a write error (EPIPE) or as EOF on the
    // reply read, depending on how fast the FIN propagates.
    let outcome = write_frame(&mut stream, &encode_request(&Request::Stats))
        .map_err(|_| ())
        .and_then(|()| read_frame_blocking(&mut stream, DEFAULT_MAX_FRAME).map_err(|_| ()));
    assert!(outcome.is_err(), "idle connection was not reaped");

    let mut fresh = TcpStream::connect(&addr).expect("reconnect");
    let reply = raw_round_trip(&mut fresh, &Request::Shutdown);
    assert!(matches!(reply, Reply::Done), "{reply:?}");
    server.join();
}
