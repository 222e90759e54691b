//! Which CPUs a thread may run on: raw `sched_getaffinity`,
//! `sched_setaffinity`, `getcpu` and `gettid` system calls on Linux/x86_64
//! (the offline registry has no `libc`), and no-ops everywhere else, where
//! [`allowed`] is empty and [`pin`] always fails. The only `unsafe` outside
//! tests in the tree; `scripts/ci.sh` checks that it stays so.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub(crate) use linux::{allowed, current_cpu, pin, tid};

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub(crate) use elsewhere::{allowed, current_cpu, pin, tid};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod linux {
    /// The kernel's `cpu_set_t`: one bit per CPU, 1024 CPUs.
    type CpuSet = [u64; 16];

    /// System call `nr` with three arguments; the kernel's answer, negative
    /// errno on failure.
    ///
    /// # Safety
    ///
    /// Every argument the call reads or writes memory through must point to
    /// memory valid for that access and of the length passed with it.
    unsafe fn syscall3(nr: usize, a: usize, b: usize, c: usize) -> isize {
        let ret;
        // SAFETY: `syscall` clobbers only rax, rcx and r11 and touches no
        // stack; the memory it reaches is the caller's to vouch for.
        unsafe {
            std::arch::asm!("syscall", inlateout("rax") nr as isize => ret, in("rdi") a,
                in("rsi") b, in("rdx") c, lateout("rcx") _, lateout("r11") _, options(nostack));
        }
        ret
    }

    /// The calling thread's kernel thread id.
    pub(crate) fn tid() -> i32 {
        // SAFETY: `gettid` reads no memory.
        unsafe { syscall3(186, 0, 0, 0) as i32 }
    }

    /// The CPUs the calling thread may run on, ascending.
    pub(crate) fn allowed() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `sched_getaffinity` writes at most the `size_of_val` bytes
        // of `set`, which the call owns.
        let ret = unsafe { syscall3(204, 0, size_of_val(&set), set.as_mut_ptr() as usize) };
        let bits = if ret > 0 { set.len() * 64 } else { 0 };
        (0..bits).filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
    }

    /// Restricts thread `tid` (0: the calling thread) to `cpu` alone; `false`
    /// if the kernel refused, e.g. for a CPU outside the allowed set.
    pub(crate) fn pin(tid: i32, cpu: usize) -> bool {
        let mut set: CpuSet = [0; 16];
        let Some(word) = set.get_mut(cpu / 64) else { return false };
        *word = 1 << (cpu % 64);
        // SAFETY: `sched_setaffinity` reads the `size_of_val` bytes of `set`.
        unsafe { syscall3(203, tid as usize, size_of_val(&set), set.as_ptr() as usize) == 0 }
    }

    /// The CPU the calling thread is running on.
    pub(crate) fn current_cpu() -> Option<usize> {
        let mut cpu = 0u32;
        // SAFETY: `getcpu` writes one `u32` through its first argument and
        // ignores the null node and cache pointers.
        let ret = unsafe { syscall3(309, &mut cpu as *mut u32 as usize, 0, 0) };
        (ret == 0).then_some(cpu as usize)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod elsewhere {
    pub(crate) fn tid() -> i32 {
        0
    }

    pub(crate) fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub(crate) fn pin(_tid: i32, _cpu: usize) -> bool {
        false
    }

    pub(crate) fn current_cpu() -> Option<usize> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn a_thread_pinned_to_an_allowed_cpu_runs_there() {
        let cpus = allowed();
        assert!(!cpus.is_empty(), "the calling thread may run somewhere");
        assert!(current_cpu().is_some_and(|cpu| cpus.contains(&cpu)));
        assert!(tid() > 0);
        for &cpu in &cpus {
            // A thread of its own, so the harness's thread keeps its mask.
            let ran_on = std::thread::spawn(move || {
                assert!(pin(0, cpu), "pinning to allowed CPU {cpu}");
                std::thread::yield_now();
                (allowed(), current_cpu())
            })
            .join()
            .expect("pinned thread");
            assert_eq!(ran_on, (vec![cpu], Some(cpu)));
        }
        assert_eq!(allowed(), cpus, "the calling thread's own mask is untouched");
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pinning_outside_the_allowed_set_fails_without_moving_the_thread() {
        let cpus = allowed();
        let outside = (0..1024).find(|cpu| !cpus.contains(cpu)).expect("fewer than 1024 CPUs");
        std::thread::spawn(move || {
            for cpu in [outside, 1024, usize::MAX] {
                assert!(!pin(0, cpu), "pinning to CPU {cpu} outside {cpus:?}");
                assert_eq!(allowed(), cpus, "a refused pin leaves the mask as it was");
            }
        })
        .join()
        .expect("refused pins do not panic");
    }

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    #[test]
    fn every_call_is_a_no_op() {
        assert!(allowed().is_empty());
        assert_eq!(current_cpu(), None);
        assert!(!pin(tid(), 0));
    }
}
