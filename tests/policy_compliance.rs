//! GDPR anti-pattern use-cases (§4.3) end-to-end: policies really change
//! which rows a consumer can see, and every obligation is discharged.

use ironsafe::monitor::MonitorError;
use ironsafe::sql::Value;
use ironsafe::tpch::gdpr::{gen_people_with_policy, PEOPLE_DDL_POLICY};
use ironsafe::{Client, Deployment, IronSafeError};

fn deployment_with_people(policy: &str) -> (Deployment, Client, Client) {
    let mut dep = Deployment::builder().seed(11).build().unwrap();
    let mut full_policy = policy.to_string();
    full_policy.push_str("\nwrite :- sessionKeyIs(Ka)");
    dep.create_database("gdpr", &full_policy);
    let owner = Client::new("Ka");
    let consumer = Client::new("Kb");
    dep.submit(&owner, "gdpr", PEOPLE_DDL_POLICY, "").unwrap();
    dep.system_mut()
        .storage_db_mut()
        .insert_rows("people", gen_people_with_policy(200, 5))
        .unwrap();
    (dep, owner, consumer)
}

#[test]
fn anti_pattern_1_timely_deletion() {
    // Records carry expiries 10..210; at T=110 exactly half are expired.
    let (mut dep, owner, consumer) =
        deployment_with_people("read :- sessionKeyIs(Ka) | sessionKeyIs(Kb) & le(T, TIMESTAMP)");
    dep.set_time(110);

    // The owner sees everything.
    let all = dep.submit(&owner, "gdpr", "SELECT COUNT(*) FROM people", "").unwrap();
    assert_eq!(all.result.rows()[0][0], Value::Int(200));

    // The consumer's query is rewritten: expired records are invisible.
    let visible = dep.submit(&consumer, "gdpr", "SELECT COUNT(*) FROM people", "").unwrap();
    assert_eq!(visible.result.rows()[0][0], Value::Int(100), "expired rows filtered out");

    // Time moves on; fewer records remain visible.
    dep.set_time(170);
    let later = dep.submit(&consumer, "gdpr", "SELECT COUNT(*) FROM people", "").unwrap();
    assert_eq!(later.result.rows()[0][0], Value::Int(40));
}

#[test]
fn anti_pattern_2_prevent_indiscriminate_use() {
    let (mut dep, _owner, consumer) = deployment_with_people("read :- reuseMap(m)");
    // The consumer is service bit 2: only rows with bit 2 set opt in.
    dep.register_service_bit(&consumer, 2);

    // Ground truth: how many rows opted in to bit 2?
    let expected = {
        let db = dep.system_mut().storage_db_mut();
        let r = db.execute("SELECT COUNT(*) FROM people WHERE (__reuse / 4) % 2 = 1").unwrap();
        r.rows()[0][0].as_i64().unwrap()
    };
    assert!(expected > 0 && expected < 200);

    let visible = dep.submit(&consumer, "gdpr", "SELECT COUNT(*) FROM people", "").unwrap();
    assert_eq!(visible.result.rows()[0][0].as_i64().unwrap(), expected);
}

#[test]
fn reuse_filter_refuses_a_client_without_a_service_bit() {
    // Bit 0 belongs to some other service: a consumer that never
    // registered a bit has opted-in rows of its own to see, none.
    let (mut dep, _owner, consumer) = deployment_with_people("read :- reuseMap(m)");
    let bit0 = {
        let db = dep.system_mut().storage_db_mut();
        let r = db.execute("SELECT COUNT(*) FROM people WHERE __reuse % 2 = 1").unwrap();
        r.rows()[0][0].as_i64().unwrap()
    };
    assert!(bit0 > 0, "some rows opted in to bit 0");

    let sql = "SELECT COUNT(*) FROM people";
    let refused = dep.submit(&consumer, "gdpr", sql, "").err();
    assert!(
        matches!(refused, Some(IronSafeError::Monitor(MonitorError::PolicyViolation(_)))),
        "{refused:?}"
    );
    let audit = dep.monitor().audit();
    assert!(audit.verify());
    assert!(audit
        .entries()
        .iter()
        .any(|e| e.client_key == "Kb" && e.message.starts_with("DENY") && e.message.contains(sql)));

    // Registering bit 0 on purpose grants exactly those rows.
    dep.register_service_bit(&consumer, 0);
    let visible = dep.submit(&consumer, "gdpr", sql, "").unwrap();
    assert_eq!(visible.result.rows()[0][0].as_i64().unwrap(), bit0);
}

#[test]
fn anti_pattern_3_transparent_sharing() {
    let (mut dep, _owner, consumer) =
        deployment_with_people("read :- logUpdate(sharing, K, Q)");
    let q1 = "SELECT p_arrival FROM people WHERE p_flight = 'LH0042'";
    let q2 = "SELECT p_email FROM people WHERE p_id = 7";
    dep.submit(&consumer, "gdpr", q1, "").unwrap();
    dep.submit(&consumer, "gdpr", q2, "").unwrap();

    // The regulator pulls the sharing log: both queries, attributed.
    let audit = dep.monitor().audit();
    assert!(audit.verify());
    let shared: Vec<_> = audit.stream("sharing");
    assert_eq!(shared.len(), 2);
    assert!(shared.iter().all(|e| e.client_key == "Kb"));
    assert!(shared[0].message.contains("p_arrival"));
    assert!(shared[1].message.contains("p_email"));
}

#[test]
fn anti_pattern_4_risk_assessment_via_attestation() {
    // The policy demands attested firmware ≥ 3 on both nodes; the
    // deployment runs firmware 5 so access is granted — and a policy
    // demanding a future version is refused.
    let (mut dep, _owner, consumer) = deployment_with_people(
        "read :- sessionKeyIs(Kb) & fwVersionStorage(3) & fwVersionHost(3)",
    );
    assert!(dep.submit(&consumer, "gdpr", "SELECT COUNT(*) FROM people", "").is_ok());

    let mut dep2 = Deployment::builder().seed(12).firmware(2, 2).build().unwrap();
    dep2.create_database(
        "gdpr",
        "read :- sessionKeyIs(Kb) & fwVersionStorage(3) & fwVersionHost(3)\nwrite :- sessionKeyIs(Ka)",
    );
    dep2.submit(&Client::new("Ka"), "gdpr", PEOPLE_DDL_POLICY, "").unwrap();
    assert!(
        dep2.submit(&consumer, "gdpr", "SELECT COUNT(*) FROM people", "").is_err(),
        "old firmware fails the policy"
    );
}

#[test]
fn anti_pattern_5_breaches_leave_evidence() {
    let (mut dep, _owner, consumer) =
        deployment_with_people("read :- sessionKeyIs(Kb) & logUpdate(breach_audit, K, Q)");
    // Legitimate access is logged.
    dep.submit(&consumer, "gdpr", "SELECT p_email FROM people WHERE p_id < 3", "").unwrap();
    // An intruder's attempt is denied *and* logged.
    let intruder = Client::new("Mx");
    assert!(dep.submit(&intruder, "gdpr", "SELECT p_email FROM people", "").is_err());

    let audit = dep.monitor().audit();
    assert!(audit.verify());
    assert_eq!(audit.stream("breach_audit").len(), 1);
    assert!(audit
        .entries()
        .iter()
        .any(|e| e.client_key == "Mx" && e.message.starts_with("DENY")));
}

#[test]
fn policy_filters_compose() {
    // Expiry AND reuse AND logging, all at once.
    let (mut dep, _owner, consumer) = deployment_with_people(
        "read :- sessionKeyIs(Kb) & le(T, TIMESTAMP) & reuseMap(m) & logUpdate(l, K, Q)",
    );
    dep.register_service_bit(&consumer, 1);
    dep.set_time(110);
    let expected = {
        let db = dep.system_mut().storage_db_mut();
        let r = db
            .execute("SELECT COUNT(*) FROM people WHERE __expiry >= 110 AND (__reuse / 2) % 2 = 1")
            .unwrap();
        r.rows()[0][0].as_i64().unwrap()
    };
    let visible = dep.submit(&consumer, "gdpr", "SELECT COUNT(*) FROM people", "").unwrap();
    assert_eq!(visible.result.rows()[0][0].as_i64().unwrap(), expected);
    assert_eq!(dep.monitor().audit().stream("l").len(), 1);
}
