//! Records the compiler version and build profile for the host
//! fingerprint every result carries.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
