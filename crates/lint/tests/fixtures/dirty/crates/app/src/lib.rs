//! Fixture: one violation per pattern rule; the unsafe forbid is only quoted (line 2).
const _: &str = "#![forbid(unsafe_code)]"; // #![forbid(unsafe_code)]
use std::time::SystemTime;

pub fn wall() -> SystemTime {
    SystemTime::now()
}

pub fn unordered() -> usize {
    let m: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    m.len()
}

pub fn panics() -> u32 {
    let v: Vec<u32> = Vec::new();
    *v.first().unwrap()
}

pub fn entropy() -> u32 {
    let _ = rand::thread_rng();
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_region_is_exempt() {
        let _set = std::collections::HashSet::<u32>::new();
        let _ = Option::<u32>::None.unwrap();
    }
}
