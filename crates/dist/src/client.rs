//! Typed RPC helpers and the job-submission client.

use std::time::Duration;

use dasc_mapreduce::ClusterConfig;
use dasc_net::{Client, ClientConfig};

use crate::proto::{stage, JobOutcome, JobSpec, Msg};

/// One typed request/reply round trip.
pub fn rpc(client: &mut Client, msg: &Msg) -> Result<Msg, String> {
    let reply = client
        .call(msg.msg_type() as u16, &msg.encode_payload())
        .map_err(|e| format!("rpc to {}: {e}", client.addr()))?;
    Msg::decode_frame(reply.msg_type, &reply.payload)
        .map_err(|e| format!("bad reply from {}: {e}", client.addr()))
}

/// Submit a DASC job to a coordinator and poll it to completion.
pub struct JobClient {
    client: Client,
    poll_interval: Duration,
    last_job_id: Option<u64>,
}

impl JobClient {
    /// Client for the coordinator at `addr`, polling at half of
    /// `cluster`'s heartbeat; RPC tuning is `dasc-net`'s default.
    pub fn connect(addr: impl Into<String>, cluster: &ClusterConfig) -> Self {
        Self {
            client: Client::new(addr, ClientConfig::default()),
            poll_interval: cluster.heartbeat_interval / 2,
            last_job_id: None,
        }
    }

    /// Submit `spec`, block until the job finishes, return the outcome.
    /// `progress` is called on every poll with `(stage, done, total)`.
    pub fn run(
        &mut self,
        spec: JobSpec,
        mut progress: impl FnMut(u8, u64, u64),
    ) -> Result<JobOutcome, String> {
        let job_id = match rpc(&mut self.client, &Msg::SubmitJob { spec })? {
            Msg::JobAccepted { job_id } => job_id,
            Msg::JobError { message } => return Err(message),
            other => return Err(format!("unexpected submit reply: {other:?}")),
        };
        self.last_job_id = Some(job_id);
        loop {
            match rpc(&mut self.client, &Msg::PollJob { job_id })? {
                Msg::JobPending {
                    stage: s,
                    done,
                    total,
                } => {
                    progress(s, done, total);
                    std::thread::sleep(self.poll_interval);
                }
                Msg::JobResult { outcome } => {
                    progress(stage::FINISH, outcome.assignments.len() as u64, 0);
                    return Ok(outcome);
                }
                Msg::JobError { message } => return Err(message),
                other => return Err(format!("unexpected poll reply: {other:?}")),
            }
        }
    }

    /// Fetch the coordinator's *federated* Prometheus metrics snapshot
    /// (its own registry plus every worker's `worker="<name>"` series).
    pub fn metrics(&mut self) -> Result<String, String> {
        match rpc(&mut self.client, &Msg::MetricsRequest)? {
            Msg::MetricsReply { text } => Ok(text),
            Msg::JobError { message } => Err(message),
            other => Err(format!("unexpected metrics reply: {other:?}")),
        }
    }

    /// The id of the most recently submitted job, if any.
    pub fn last_job_id(&self) -> Option<u64> {
        self.last_job_id
    }

    /// Fetch the merged Chrome trace JSON for `job_id` (the job must
    /// have been submitted with [`JobSpec::collect_trace`]).
    pub fn trace_json(&mut self, job_id: u64) -> Result<String, String> {
        match rpc(&mut self.client, &Msg::TraceRequest { job_id })? {
            Msg::TraceReply { json } => Ok(json),
            Msg::JobError { message } => Err(message),
            other => Err(format!("unexpected trace reply: {other:?}")),
        }
    }
}
