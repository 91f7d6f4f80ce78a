pub fn observe_wall_latency(metrics: &mut Metrics, ids: &MetricIds) {
    let t0 = Instant::now();
    let dt = convert::lossless_f64(t0.elapsed());
    metrics.observe(ids.e2e, dt);
}
pub fn observe_registered_wall_latency(metrics: &mut Metrics) {
    let id = metrics.register("e2e");
    let started = Instant::now();
    metrics.observe(id, started.elapsed());
}
pub fn observe_virtual_latency(metrics: &mut Metrics, ids: &MetricIds, t_end: f64, t0: f64) {
    let dt = t_end - t0;
    metrics.observe(ids.e2e, dt);
}
