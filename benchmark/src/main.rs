fn main() -> std::process::ExitCode {
    bmx_benchmark::cli()
}
