fn main() -> std::process::ExitCode {
    iwbench::cli::main()
}
